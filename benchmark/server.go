package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// findRoot walks up from the working directory to the checkout root:
// the directory holding go.mod and cmd/flexray-serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "flexray-serve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with cmd/flexray-serve above the working directory")
		}
		dir = parent
	}
}

// buildServe builds flexray-serve from the checkout with the committed
// PGO profile, as it ships.
func buildServe(root, out string) error {
	cmd := exec.Command("go", "build", "-pgo=default.pgo", "-o", out, "./cmd/flexray-serve")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building flexray-serve: %v\n%s", err, stderr.String())
	}
	return nil
}

// server is one flexray-serve subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// live tracks every started server so an interrupted benchmark can
// stop them all.
var live struct {
	sync.Mutex
	set map[*server]struct{}
}

// startServer launches flexray-serve on a free loopback port and
// returns once /readyz answers 200, with the time from exec to that
// answer. dir receives the server's log and address file.
func startServer(ctx context.Context, bin, dir, name string, args ...string) (*server, time.Duration, error) {
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	live.Lock()
	if live.set == nil {
		live.set = map[*server]struct{}{}
	}
	live.set[s] = struct{}{}
	live.Unlock()

	if err := s.awaitReady(ctx, addrFile); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("%s: %w (log: %s)", name, err, logf.Name())
	}
	return s, time.Since(start), nil
}

// awaitReady polls for the address file, then for a 200 from /readyz.
// The poll interval is short against the set-up time it measures.
func (s *server) awaitReady(ctx context.Context, addrFile string) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	client := &http.Client{Timeout: 5 * time.Second}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return fmt.Errorf("exited before ready: %v", s.err)
		case <-ctx.Done():
			return errors.New("not ready within 60s")
		case <-tick.C:
		}
		if s.addr == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || len(b) == 0 {
				continue
			}
			s.addr = string(b)
		}
		resp, err := client.Get(s.url("/readyz"))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain (SIGTERM) and waits for it, killing it
// if the drain overruns.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.forget()
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.forget()
}

func (s *server) forget() {
	s.log.Close()
	live.Lock()
	delete(live.set, s)
	live.Unlock()
}

// killAll ends every server still running.
func killAll() {
	live.Lock()
	var all []*server
	for s := range live.set {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the user+system CPU time a process has consumed.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; the fields after
	// its closing parenthesis are space-separated. utime and stime are
	// fields 14 and 15, i.e. the 12th and 13th after field 2.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS reads a process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyFile copies src to dst, replacing dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
