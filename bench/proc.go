package main

import (
	"bytes"
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
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child process so none outlives the harness.
type procSet struct {
	mu    sync.Mutex
	procs []*daemon
}

// killAll SIGKILLs every live child and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := append([]*daemon(nil), ps.procs...)
	ps.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
}

// daemon is one kcenterd child process (shard or router).
type daemon struct {
	addr  string // host:port of the serving listener
	debug string // host:port of the debug listener ("" when off)
	args  []string
	bin   string
	log   string // path of the captured stderr

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// buildDaemon compiles cmd/kcenterd into outDir and returns the binary path
// and how long the go build took (near zero when the build cache is warm).
func buildDaemon(outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "bin", "kcenterd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "coresetclustering/cmd/kcenterd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build kcenterd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the daemon binds it, so start retries on a lost race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches kcenterd with args plus -addr (and -debug-addr when debug is
// set) on free ports and waits until /healthz answers 200.
func (ps *procSet) start(bin, scratch string, debug bool, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d := &daemon{bin: bin, args: args}
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d.addr = "127.0.0.1:" + strconv.Itoa(port)
		if debug {
			dport, err := freePort()
			if err != nil {
				return nil, err
			}
			d.debug = "127.0.0.1:" + strconv.Itoa(dport)
		}
		logFile, err := os.CreateTemp(scratch, "kcenterd-*.log")
		if err != nil {
			return nil, err
		}
		d.log = logFile.Name()
		logFile.Close()
		if lastErr = d.launch(); lastErr == nil {
			ps.mu.Lock()
			ps.procs = append(ps.procs, d)
			ps.mu.Unlock()
			return d, nil
		}
	}
	return nil, lastErr
}

// launch starts the process on d's fixed addresses and waits for health. It
// is also the restart path after kill, which is why the addresses persist.
func (d *daemon) launch() error {
	args := append([]string{}, d.args...)
	args = append(args, "-addr", d.addr)
	if d.debug != "" {
		args = append(args, "-debug-addr", d.debug)
	}
	logFile, err := os.OpenFile(d.log, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close()
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	d.mu.Lock()
	d.cmd, d.done = cmd, done
	d.mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			tail, _ := os.ReadFile(d.log)
			return fmt.Errorf("kcenterd exited during start: %s", lastLines(tail, 5))
		default:
		}
		resp, err := http.Get(d.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return errors.New("kcenterd did not become healthy in 15 s")
}

// kill SIGKILLs the process (no shutdown path runs) and waits for it.
func (d *daemon) kill() {
	d.mu.Lock()
	cmd, done := d.cmd, d.done
	d.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Kill()
	<-done
}

// rusage returns the process's user+system CPU seconds and peak resident set
// in MiB, read from /proc while it is alive.
func (d *daemon) rusage() (cpuSeconds, peakRSSMiB float64, err error) {
	d.mu.Lock()
	pid := d.cmd.Process.Pid
	d.mu.Unlock()
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100/s on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(fields[11], 64)
	stime, _ := strconv.ParseFloat(fields[12], 64)
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			peakRSSMiB = kb / 1024
		}
	}
	return (utime + stime) / 100, peakRSSMiB, nil
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
