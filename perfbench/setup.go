package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupProbes is the number of times a run sets its workload up to time
// setup_s; the median is reported.
const setupProbes = 41

// measureSetup times setupProbes fresh processes from start to ready: each
// re-executes this binary with --setup-probe, which sets the workload up
// (local: loads the inputs and stops where experiments.Run would be entered;
// served: also starts the servers on loopback and waits for the first
// healthy /healthz with every worker live), prints "ready",
// and tears everything down when its standard input closes.
func measureSetup(ctx context.Context, o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(ctx, exe, o)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}

func probeOnce(ctx context.Context, exe string, o options) (float64, error) {
	cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--work", o.work, "--refs", o.refs)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0).Seconds()
	stdin.Close()
	waitErr := cmd.Wait()
	switch {
	case readErr != nil:
		return 0, fmt.Errorf("reading ready line: %v (exit: %v)", readErr, waitErr)
	case waitErr != nil:
		return 0, waitErr
	case line != "ready\n":
		return 0, fmt.Errorf("unexpected probe output %q", line)
	}
	return d, nil
}

// setupProbe is the child side of measureSetup.
func setupProbe(o options, stdin io.Reader, stdout io.Writer) error {
	switch o.workload {
	case "table2_stochastic":
		if _, _, err := localInputs(o); err != nil {
			return err
		}
	case "served_fleet":
		dir, err := os.MkdirTemp(o.work, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := startStack(context.Background(), dir)
		if err != nil {
			return err
		}
		defer st.Close()
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, stdin) // returns at end of input: the parent has its time
	return nil
}
