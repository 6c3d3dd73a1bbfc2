//go:build !linux

package journal

import "os"

// datasync flushes f's data. Without fdatasync it is a full sync.
func datasync(f *os.File) error { return f.Sync() }
