package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running relaccd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	ready time.Duration // exec until /healthz answered
	out   *bytes.Buffer // stderr, for error reports
	// exited is closed once the process has been waited for; err is then
	// its exit status.
	exited chan struct{}
	err    error
}

// startDaemon execs relaccd with args (plus -addr on a free loopback
// port) and returns once /healthz answers. env adds variables such as
// GOMAXPROCS.
func startDaemon(bin string, args, env []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	d := &daemon{cmd: cmd, out: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = d.out
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		// Read stdout to the end so the daemon never blocks on a full pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on http://"); i >= 0 && strings.HasPrefix(line, "relaccd: serving") {
				select {
				case addr <- line[i+len(" on "):]:
				default: // only the first serving line counts
				}
			}
		}
		close(addr)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	base, ok := <-addr
	if !ok {
		<-d.exited
		return nil, fmt.Errorf("relaccd exited before serving (%v): %s", d.err, d.out.String())
	}
	d.base = base
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("relaccd exited before /healthz answered (%v): %s", d.err, d.out.String())
		default:
		}
		if time.Since(start) > 120*time.Second {
			d.kill()
			return nil, fmt.Errorf("relaccd did not answer /healthz within 120s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.ready = time.Since(start)
	return d, nil
}

// peakRSSMB is the daemon's VmHWM from /proc, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// kill sends SIGKILL and waits for the process to end; it is a no-op
// on a daemon that already exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// stop asks the daemon to drain and exit, killing it after 30s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("relaccd: %v: %s", d.err, d.out.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("relaccd did not stop within 30s of SIGTERM")
	}
}

// get fetches base+path and returns status and body.
func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// cpuSeconds is the daemon's user plus system CPU time so far, from
// /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are the 14th and 15th fields, in clock ticks
	// (USER_HZ, 100 on Linux); count from after the parenthesised name.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", d.cmd.Process.Pid, err1, err2)
	}
	return (utime + stime) / 100, nil
}

// procRun is what runTimed measured of one finished process.
type procRun struct {
	wall   time.Duration
	cpu    float64 // user + system seconds, from rusage
	rssMB  float64 // peak RSS in MiB (rusage maxrss: the exited process's VmHWM)
	stdout []byte
}

// runTimed runs a command to completion and measures it.
func runTimed(bin string, args ...string) (procRun, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(start), stdout: stdout.Bytes()}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return r, nil
}
