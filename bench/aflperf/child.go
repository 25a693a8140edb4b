package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// child is the parent's handle on the `aflperf sut` process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	log   *os.File
	addrs []string
}

// startChild launches the system under test and waits until it is
// listening. The child's own stderr (the servers' log output) goes to
// sut.log in the scratch directory.
func startChild(cfg sutConfig) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.Dir, "sut.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "sut")
	cmd.Stderr = logf
	in, err := cmd.StdinPipe()
	if err != nil {
		_ = logf.Close()
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		_ = logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16), log: logf}
	var ready sutReady
	if err := c.roundTrip(cfg, &ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("start sut: %w (see %s)", err, logf.Name())
	}
	if ready.Err != "" {
		c.kill()
		return nil, fmt.Errorf("start sut: %s", ready.Err)
	}
	c.addrs = ready.Addrs
	return c, nil
}

func (c *child) roundTrip(req, resp any) error {
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if _, err := c.in.Write(append(line, '\n')); err != nil {
		return err
	}
	answer, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("sut closed its control channel: %w", err)
	}
	return json.Unmarshal(answer, resp)
}

func (c *child) call(req sutRequest) (sutStats, error) {
	var st sutStats
	if err := c.roundTrip(req, &st); err != nil {
		return st, err
	}
	if st.Err != "" {
		return st, errors.New(st.Err)
	}
	return st, nil
}

// stop ends a child that has answered "finish" (or abandons one that has
// not) and waits for the process.
func (c *child) stop() {
	_ = c.in.Close()
	_ = c.cmd.Wait()
	_ = c.log.Close()
}

// kill is stop for a child that may be wedged.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	c.stop()
}
