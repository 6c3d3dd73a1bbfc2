//go:build linux

package journal

import (
	"os"
	"syscall"
)

// datasync flushes f's data and only the metadata needed to read it back:
// fdatasync skips timestamps, and within a zero-filled extent an append
// changes neither size nor allocation, so the sync leaves the filesystem no
// journal commit to wait for. It allocates nothing unless it fails.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		switch err {
		case nil:
			return nil
		case syscall.EINTR:
			continue
		default:
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
