package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every process the benchmark starts is registered here, so that an
// early exit or a signal still stops and reaps all of them.
var (
	procMu sync.Mutex
	procs  = map[*proc]struct{}{}
)

type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // listen address a server announced
	done chan struct{}
	once sync.Once
	peak float64 // MiB, set by stop
}

// pinCPU is the processor every measured process runs on, or "" to
// leave placement to the scheduler. On a small virtual machine, handing
// each request from one virtual CPU to another costs more than serving
// it, and the cost swings with the host's load; on one CPU the handoff
// is a plain context switch. The benchmark's own orchestration and
// reference computation run unpinned.
var pinCPU = func() string {
	if runtime.NumCPU() < 2 {
		return ""
	}
	if _, err := exec.LookPath("taskset"); err != nil {
		return ""
	}
	return strconv.Itoa(runtime.NumCPU() - 1)
}()

// command prepares a child process, pinned to pinCPU, that is killed if
// the benchmark dies.
func command(bin string, args ...string) *exec.Cmd {
	if pinCPU != "" {
		args = append([]string{"-c", pinCPU, bin}, args...)
		bin = "taskset"
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func register(p *proc) {
	procMu.Lock()
	procs[p] = struct{}{}
	procMu.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
}

// startServer starts an sssjd listening on a free loopback port
// and waits until it announces the address. Its log goes to logPath.
func startServer(name, bin string, logPath string, args ...string) (*proc, error) {
	cmd := command(bin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on "); i >= 0 && !announced {
				announced = true
				addrc <- strings.Fields(line[i+len("listening on "):])[0]
			}
		}
		io.Copy(logf, stderr)
	}()
	register(p)
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logPath)
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address; see %s", name, logPath)
	}
}

// stop terminates the process, waits for it, and returns its peak
// resident set size in MiB, read while it still runs (0 once it has
// exited). The kernel's rusage figure would not do: it also counts the
// benchmark's own memory, which the child shared until it exec'd.
func (p *proc) stop() float64 {
	p.once.Do(func() {
		p.peak = peakRSS(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		procMu.Lock()
		delete(procs, p)
		procMu.Unlock()
	})
	return p.peak
}

// stopAll stops every registered process.
func stopAll() {
	procMu.Lock()
	var ps []*proc
	for p := range procs {
		ps = append(ps, p)
	}
	procMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// stopOnSignal stops every child and exits when the benchmark is
// interrupted or terminated.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		os.Exit(2)
	}()
}

// runRole runs this binary in a child role with the job written as JSON
// to a file, and decodes the child's JSON result from its standard
// output into out.
func runRole(self, role, workDir string, job, out any) error {
	jobPath := filepath.Join(workDir, role+"-job.json")
	b, err := json.Marshal(job)
	if err != nil {
		return err
	}
	if err := os.WriteFile(jobPath, b, 0o644); err != nil {
		return err
	}
	cmd := command(self, "-role", role, "-job", jobPath)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := runToEnd(role, cmd); err != nil {
		return err
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%s role result: %w", role, err)
	}
	return nil
}

// runToEnd runs cmd as a registered child and waits for it to exit.
func runToEnd(name string, cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	register(p)
	<-p.done
	p.stop()
	if !cmd.ProcessState.Success() {
		return fmt.Errorf("%s: %v", name, cmd.ProcessState)
	}
	return nil
}

// ownPeakRSS reads this process's peak resident set size in MiB.
func ownPeakRSS() float64 { return peakRSS("/proc/self/status") }

// peakRSS reads the peak resident set size, in MiB, from a
// /proc/<pid>/status file; 0 if it cannot.
func peakRSS(status string) float64 {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts this process's peak-RSS accounting, so that the
// peak reported later covers only what follows.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset peak RSS (%v); it includes set-up\n", err)
	}
}
