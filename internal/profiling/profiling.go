// Package profiling wires pprof capture into the CLIs as a uniform
// flag pair: -cpuprofile streams a CPU profile over the whole command
// and -memprofile snapshots the heap on exit. The hot closed-loop
// paths (engine campaigns, the experiment sweeps) can then be profiled
// exactly as deployed — worker pools, store tiers, the async archiver —
// rather than only through the Go test benchmarks.
//
// Usage:
//
//	prof := profiling.Register(fs)
//	fs.Parse(args)
//	stop, err := prof.Start()
//	if err != nil { ... }
//	defer stop()
//
// scripts/profile_sim.sh packages the common invocation; see
// docs/benchmarks.md for the analysis workflow.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered on a FlagSet.
type Flags struct {
	cpu *string
	mem *string
}

// Register adds -cpuprofile and -memprofile to fs (the process-wide
// flag.CommandLine works too) and returns the handle Start reads after
// parsing.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the whole command to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling if -cpuprofile was given and returns a
// stop function that ends the CPU profile and, if -memprofile was
// given, writes the heap snapshot. The stop function reports capture
// problems on stderr (profiling failures should not fail the command)
// and is safe to call when neither flag was set — it does nothing.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	memPath := *f.mem
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: close CPU profile: %v\n", err)
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			}
		}
	}, nil
}

// writeHeap snapshots the heap after a GC, so the profile reflects
// live memory rather than collectable garbage.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("write heap profile: %w", err)
	}
	return nil
}
