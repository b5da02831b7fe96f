// Package profile gives the command-line tools one implementation of the
// -cpuprofile and -memprofile flags: binding them, starting and stopping
// the CPU profile, and writing the heap profile on clean exit.
//
//	var prof profile.Flags
//	prof.Bind(fs)
//	// after fs.Parse:
//	if err := prof.Start(); err != nil { ... }
//	defer prof.Stop()
//	// ... the run ...
//	if err := prof.WriteHeap(); err != nil { ... }
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations; an empty path disables that
// profile.
type Flags struct {
	CPU string // -cpuprofile
	Mem string // -memprofile

	cpuFile *os.File
}

// Bind registers -cpuprofile and -memprofile on fs.
func (f *Flags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file on clean exit")
}

// Start begins CPU profiling when -cpuprofile is set. Errors read
// "cpuprofile: <cause>".
func (f *Flags) Start() error {
	if f.CPU == "" {
		return nil
	}
	out, err := os.Create(f.CPU)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	f.cpuFile = out
	return nil
}

// Stop ends the CPU profile started by Start, if any, and closes its file.
func (f *Flags) Stop() {
	if f.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	f.cpuFile.Close()
	f.cpuFile = nil
}

// WriteHeap writes the heap profile when -memprofile is set. It collects
// garbage first, so the profile shows live objects rather than garbage
// awaiting collection. Errors read "memprofile: <cause>".
func (f *Flags) WriteHeap() error {
	if f.Mem == "" {
		return nil
	}
	out, err := os.Create(f.Mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
