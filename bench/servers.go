package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServers compiles cmd/solard and cmd/solargate into binDir. The
// build happens before any set-up is timed, so compile time never shows
// in setup_s.
func buildServers(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/solard", "./cmd/solargate")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the servers: %w", err)
	}
	return nil
}

// proc is one server process started by the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once the process has ended
}

// startProc launches bin with args and waits until it announces its
// listening address on stdout. The process is killed if the benchmark
// dies first.
func startProc(ctx context.Context, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{name: filepath.Base(bin), cmd: cmd, done: make(chan error, 1)}
	urls := make(chan string, 1) // the single announcement
	go func() {
		// Read stdout to its end (the process exiting) before Wait, which
		// closes the pipe.
		sc := bufio.NewScanner(stdout)
		for sent := false; sc.Scan(); {
			_, rest, ok := strings.Cut(sc.Text(), " listening on ")
			if f := strings.Fields(rest); ok && len(f) > 0 && !sent {
				sent = true
				select {
				case urls <- f[0]:
				case <-ctx.Done():
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case p.url = <-urls:
		return p, nil
	case err := <-p.done:
		p.done <- err
		return nil, fmt.Errorf("%s exited before listening: %v", p.name, err)
	case <-timer.C:
	case <-ctx.Done():
	}
	_ = p.kill()
	return nil, fmt.Errorf("%s did not announce its address", p.name)
}

// stop asks the process to drain with SIGTERM and waits for it to end,
// killing it if it has not ended within a few seconds.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return p.kill()
	}
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		return nil
	case <-timer.C:
		return p.kill()
	}
}

// kill ends the process with SIGKILL and waits for it.
func (p *proc) kill() error {
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("killing %s: %w", p.name, err)
	}
	err := <-p.done
	p.done <- err
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	procs []*proc
}

// rssMB sums the peak RSS of every live server process.
func (f *fleet) rssMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop drains every process, front door first.
func (f *fleet) stop() error {
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- {
		errs = append(errs, f.procs[i].stop())
	}
	f.procs = nil
	return errors.Join(errs...)
}
