package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"griphon/internal/sim"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is 100 on
// every Linux architecture Go supports.
const clockTick = 100

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` starts in the root, `go test` in bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory; run from the griphon checkout")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/griphond into dir and reports how long that took.
func buildDaemon(root, dir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(dir, "griphond")
	sw := sim.NewStopwatch()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/griphond")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/griphond: %w\n%s", err, out)
	}
	return bin, sw.Elapsed(), nil
}

// daemon is one running griphond.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port. Another process could
// take it before the daemon binds; the ready poll then times out.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// spawnDaemon starts griphond on stateDir and returns once it answers. Its
// log goes to stateDir/../<name>.log, kept for a failed run.
func spawnDaemon(bin string, w *workload, stateDir string, port int) (*daemon, error) {
	logf, err := os.OpenFile(stateDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{
		"-listen", addr, "-seed", fmt.Sprint(daemonSeed), "-auto-repair=false",
		"-fsync", "-state-dir", stateDir,
	}, w.daemonArgs()...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() //lint:allow errcheck a killed daemon's exit status carries nothing
		close(d.done)
	}()
	if err := d.waitReady(); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// readyTimeout bounds the wait for a spawned daemon's first reply.
const readyTimeout = 30 * time.Second

// waitReady polls until the daemon answers 200 or exits.
func (d *daemon) waitReady() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	sw := sim.NewStopwatch()
	for sw.Elapsed() < readyTimeout {
		select {
		case <-d.done:
			return fmt.Errorf("griphond exited before answering; see %s", d.log.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/api/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			return fmt.Errorf("griphond answered %d to its first request", resp.StatusCode)
		}
		time.Sleep(250 * time.Microsecond) //lint:allow wallclock back-off between connection attempts to a daemon that is still starting
	}
	return fmt.Errorf("griphond did not answer within %s; see %s", readyTimeout, d.log.Name())
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits for the process to end. The OS page cache
// survives, so a restart after it tests process-crash durability only.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL) //lint:allow errcheck the process may already be gone
	<-d.done
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(b)
	return float64(ticks) / clockTick, err
}

// rssPeakMB is the daemon's peak resident set size (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	return float64(kb) / 1024, err
}

// fsType names the filesystem holding dir, from /proc/mounts (longest mount
// point that prefixes dir).
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
