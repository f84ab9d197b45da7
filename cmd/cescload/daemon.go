package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the root of the repro
// module, whose source the benchmark builds and whose specs it loads.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing checkout of module repro (run from the repository)")
		}
		dir = parent
	}
}

// buildDaemon builds cescd from the checkout into out. go build leaves an
// up-to-date binary alone, so only the first run in a checkout pays.
func buildDaemon(ctx context.Context, root, out string) (string, error) {
	bin := filepath.Join(out, "cescd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cescd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cescd: %v\n%s", err, msg)
	}
	return bin, nil
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one cescd process. args are kept so a killed daemon can be
// re-executed on the same address and WAL directory.
type daemon struct {
	name string
	url  string
	args []string
	log  string

	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// start execs the daemon, appending its output to the log file. The
// kernel kills the process if cescload dies first.
func (d *daemon) start(bin string) error {
	f, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	cmd := exec.Command(bin, d.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(done)
	}()
	d.cmd, d.done = cmd, done
	return nil
}

// kill sends SIGKILL and returns once the process has been reaped.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.cmd = nil
}

// waitReady polls GET /readyz until it answers 200. The 2 ms poll period
// bounds how much it adds to setup_s and recover_s.
func waitReady(ctx context.Context, hc *http.Client, d *daemon, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s (log %s)", d.name, limit, d.log)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (log %s)", d.name, d.log)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procHWM reads a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU is the generator's own user+system CPU time. Getrusage fails
// only on a bad argument, so its error is not passed on.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
