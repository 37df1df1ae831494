package main

import (
	"fmt"
	"time"

	"github.com/mod-ds/mod/internal/workloads"
)

// simOps is the operation count of each Table 2 workload in one pass of
// the paper-sim suite.
const simOps = 20_000

// simPass is one pass of the nine Table 2 workloads on the MOD engine.
type simPass []workloads.Result

// runSimPass runs every Table 2 workload once at ops operations.
func runSimPass(ops int, seed uint64) (simPass, error) {
	pass := make(simPass, 0, len(workloads.Names))
	for _, name := range workloads.Names {
		r, err := workloads.Run(name, workloads.EngineMOD, workloads.Config{Ops: ops, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pass = append(pass, r)
	}
	return pass, nil
}

// sameCounts reports whether two passes simulated exactly the same
// thing: every simulated time, count and cache statistic identical.
func sameCounts(a, b simPass) error {
	if len(a) != len(b) {
		return fmt.Errorf("pass lengths %d and %d differ", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.SimNs != y.SimNs || x.FlushNs != y.FlushNs || x.Flushes != y.Flushes || x.Fences != y.Fences ||
			x.Cache != y.Cache || x.LiveBytes != y.LiveBytes || x.CumBytes != y.CumBytes {
			return fmt.Errorf("%s did not repeat: sim %.0f/%.0f ns, %d/%d flushes, %d/%d fences",
				x.Workload, x.SimNs, y.SimNs, x.Flushes, y.Flushes, x.Fences, y.Fences)
		}
	}
	return nil
}

// simRun holds what the paper-sim workload measured.
type simRun struct {
	setup     []time.Duration
	setupCPU  []time.Duration
	base      simPass // the last set-up pass: every workload at one operation
	first     simPass
	passes    int
	attempted int
	failed    int
	err       error
}

// runSim measures the suite's set-up (every workload at one operation:
// device, store and preload, no measured work) setupRounds times, then
// repeats full passes until seconds have elapsed, at least twice. Every
// pass after the first must repeat the first exactly.
func runSim(seed uint64, seconds int) (*simRun, error) {
	run := &simRun{}
	for i := 0; i < setupRounds; i++ {
		start, cpu := time.Now(), cpuTime()
		base, err := runSimPass(1, seed)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start))
		run.setupCPU = append(run.setupCPU, cpuTime()-cpu)
		run.base = base
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for run.passes < 2 || time.Now().Before(deadline) {
		pass, err := runSimPass(simOps, seed)
		run.passes++
		run.attempted += simOps * len(workloads.Names)
		if err == nil && run.first != nil {
			err = sameCounts(run.first, pass)
		}
		if err != nil {
			run.failed += simOps * len(workloads.Names)
			if run.err == nil {
				run.err = err
			}
			continue
		}
		if run.first == nil {
			run.first = pass
		}
	}
	return run, nil
}
