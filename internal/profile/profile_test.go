package profile

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBindParsesBothFlags(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Bind(fs)
	if err := fs.Parse([]string{"-cpuprofile", "c.out", "-memprofile", "m.out"}); err != nil {
		t.Fatal(err)
	}
	if f.CPU != "c.out" || f.Mem != "m.out" {
		t.Errorf("parsed CPU=%q Mem=%q, want c.out and m.out", f.CPU, f.Mem)
	}
}

func TestUnsetFlagsDoNothing(t *testing.T) {
	var f Flags
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	if err := f.WriteHeap(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := Flags{CPU: filepath.Join(dir, "cpu.out"), Mem: filepath.Join(dir, "mem.out")}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	f.Stop() // a second Stop is a no-op
	if err := f.WriteHeap(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPU, f.Mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", p, err)
		}
	}
}

func TestErrorsNameTheFlag(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x.out")
	f := Flags{CPU: bad, Mem: bad}
	if err := f.Start(); err == nil || !strings.HasPrefix(err.Error(), "cpuprofile: ") {
		t.Errorf("Start error = %v, want a cpuprofile: prefix", err)
	}
	f.Stop()
	if err := f.WriteHeap(); err == nil || !strings.HasPrefix(err.Error(), "memprofile: ") {
		t.Errorf("WriteHeap error = %v, want a memprofile: prefix", err)
	}
}
