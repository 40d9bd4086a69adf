package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"gea"
)

// server is one "gea serve" child process.
type server struct {
	cmd  *exec.Cmd
	base string
	// exited is closed once the process has ended; exitErr is its
	// status. A server that exits on its own ends the run.
	exited  chan struct{}
	exitErr error
	log     *os.File
}

// freeAddr picks a loopback port the kernel reports unused.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches "gea serve" with flags and waits for the first
// 200 on /healthz, returning the time from start to ready.
func startServer(geaBin, logPath string, flags []string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"serve", "-addr", addr}, flags...)
	s := &server{
		cmd:    exec.Command(geaBin, args...),
		base:   "http://" + addr,
		exited: make(chan struct{}),
		log:    logf,
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting gea serve: %w", err)
	}
	go func() {
		s.exitErr = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("gea serve exited before ready: %v (log %s)", s.exitErr, logPath)
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.kill()
	return nil, 0, errors.New("gea serve not ready within 120s")
}

// dead reports whether the process has ended.
func (s *server) dead() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// memMiB reads a /proc/<pid>/status memory field (VmHWM, VmRSS) in MiB.
func (s *server) memMiB(field string) float64 {
	return procMemMiB(strconv.Itoa(s.cmd.Process.Pid), field)
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; past 30 s it is killed.
func (s *server) stop() error {
	defer s.log.Close()
	if s.dead() {
		return fmt.Errorf("gea serve had already exited: %v", s.exitErr)
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.exitErr
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("gea serve did not drain within 30s")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// procMemMiB reads a memory field of /proc/<pid>/status in MiB; 0 when
// unreadable.
func procMemMiB(pid, field string) float64 {
	return procField("/proc/"+pid+"/status", field) / 1024
}

// client is one closed-loop HTTP caller. Overload answers (429/503) are
// retried with the capped Retry-After policy the geabench loaders use.
type client struct {
	base string
	http *http.Client
}

const (
	// retryAttempts bounds tries per logical request, as in geabench.
	retryAttempts = 6
	// retryCap caps one Retry-After wait.
	retryCap = 2 * time.Second
)

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Timeout: 60 * time.Second}}
}

// post sends body to path, retrying overload answers, and hands a 2xx
// response body to read. Any other status, a transport error or an
// exhausted retry budget is a failure.
func (c *client) post(ctx context.Context, path string, body []byte, read func(io.Reader) error) error {
	backoff := 50 * time.Millisecond
	for attempt := 1; attempt <= retryAttempts; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 == 2 {
			err := read(resp.Body)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return err
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		}
		d := backoff
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
		time.Sleep(min(d, retryCap))
		backoff *= 2
	}
	return fmt.Errorf("%s: retry budget of %d exhausted", path, retryAttempts)
}

func (c *client) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// createSession opens a session for tenant and returns its ID.
func (c *client) createSession(ctx context.Context, tenant string) (string, error) {
	body, _ := json.Marshal(map[string]string{"tenant": tenant})
	var info gea.SessionInfo
	err := c.post(ctx, "/session", body, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&info)
	})
	return info.ID, err
}

// healthz is the subset of /healthz the checks read.
type healthz struct {
	Generation uint64               `json:"generation"`
	Cache      gea.ResultCacheStats `json:"cache"`
}

// ingestReply is the subset of a POST /ingest reply the checks read.
type ingestReply struct {
	Appended   []string `json:"appended"`
	Generation uint64   `json:"generation"`
}
