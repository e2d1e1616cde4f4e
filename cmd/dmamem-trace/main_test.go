package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmamem"
	"dmamem/internal/experiments"
)

// The golden and feeder-equivalence suites under internal/experiments
// pin the numbers these commands print; these tests pin what they do
// with their arguments and files.

// runTrace runs dmamem-trace in process and returns its exit status
// and what it wrote.
func runTrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs dmamem-trace and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runTrace(args...)
	if code != 0 {
		t.Fatalf("dmamem-trace %q: exit %d\n%s", args, code, stderr)
	}
	return stdout
}

// TestRecordInfoReplay records a trace, inspects it, and replays the
// file through Simulation.TraceFile (what dmamem-sim -trace runs): the
// recording must simulate every transfer it holds.
func TestRecordInfoReplay(t *testing.T) {
	dmt := filepath.Join(t.TempDir(), "st.dmt")
	out := mustRun(t, "record", "-workload", "synthetic-st", "-duration", "2ms", "-chunk", "128", "-o", dmt)
	st, err := dmamem.StatTraceFile(dmt)
	if err != nil || st.Name != "Synthetic-St" || st.ChunkRecords != 128 {
		t.Fatalf("record produced %+v, %v", st, err)
	}
	if want := "wrote " + dmt + ": " + describe(st) + "\n"; out != want {
		t.Errorf("record printed %q, want %q", out, want)
	}
	if out := mustRun(t, "info", dmt); out != describe(st)+"\n" { // footer-only summary
		t.Errorf("info printed %q", out)
	}
	if out := mustRun(t, "cdf", dmt); !strings.Contains(out, "pages%") { // decodes the records
		t.Errorf("cdf printed %q", out)
	}

	rep, err := dmamem.Run(dmamem.Simulation{
		TraceFile: dmt, Technique: dmamem.TemporalAlignmentWithLayout, CPLimit: 0.10, PLGroups: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rep.Transfers) != st.DMATransfers {
		t.Fatalf("replay simulated %d transfers, the file holds %d", rep.Transfers, st.DMATransfers)
	}
}

func TestRecordAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, name := range experiments.WorkloadNames() { // the -workload values, lowercased
		w := strings.ToLower(name)
		p := filepath.Join(dir, w+".dmt")
		mustRun(t, "record", "-workload", w, "-duration", "2ms", "-o", p)
		if _, err := dmamem.StatTraceFile(p); err != nil {
			t.Errorf("workload %s: %v", w, err)
		}
	}
}

// TestRejectsWhatItWouldIgnore runs the command in a directory holding
// two valid containers and one file of another format. Stray
// arguments, bad generator flags, a missing path and an unknown
// subcommand exit 2 with the reason and write nothing: a zero or
// negative -duration and -seed 0, which the generator options would
// read as their defaults, fail as they do in dmamem-sim. A file that
// is not a .dmt container exits 1 on its bad magic.
func TestRejectsWhatItWouldIgnore(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"a.dmt", "b.dmt"} {
		mustRun(t, "record", "-workload", "synthetic-st", "-duration", "1ms", "-o", at(name))
	}
	if err := os.WriteFile(at("trace.bin"), append([]byte("DMAT"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	const usageLine = "usage: dmamem-trace record [flags] | info trace.dmt | cdf trace.dmt"
	for _, tc := range []struct {
		args    []string
		exit    int
		wantErr string
	}{
		{[]string{"info", at("a.dmt"), at("b.dmt")}, 2, usageLine},
		{[]string{"cdf", at("a.dmt"), at("b.dmt")}, 2, usageLine},
		{[]string{"info"}, 2, usageLine},
		{nil, 2, usageLine},
		{[]string{"record", "-duration", "2ms", "-o", at("c.dmt"), "out.dmt"}, 2, `stray arguments ["out.dmt"]`},
		{[]string{"record", "-o", at("c.dmt"), "extra"}, 2, `stray arguments ["extra"]`},
		{[]string{"record", "-o", at("c.dmt"), "-workload", "bogus"}, 2, `unknown -workload "bogus"`},
		{[]string{"record", "-o", at("c.dmt"), "-seed", "0"}, 2, "-seed 0 is not a seed"},
		{[]string{"record", "-o", at("c.dmt"), "-duration", "0"}, 2, "-duration 0s must be positive"},
		{[]string{"record", "-o", at("c.dmt"), "-duration", "-1ms"}, 2, "-duration -1ms must be positive"},
		{[]string{"record", "-o", at("c.dmt"), "-chunk", "-1"}, 2, "-chunk -1 outside"},
		{[]string{"record", "-o", at("c.dmt"), "-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"replay", at("a.dmt")}, 2, usageLine},
		{[]string{"gen", "-o", at("c.dmt")}, 2, usageLine},
		{[]string{"info", at("trace.bin")}, 1, "bad magic"},
		{[]string{"cdf", at("trace.bin")}, 1, "bad magic"},
	} {
		code, stdout, stderr := runTrace(tc.args...)
		if code != tc.exit || !strings.Contains(stderr, tc.wantErr) || stdout != "" {
			t.Errorf("dmamem-trace %q: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr containing %q",
				tc.args, code, stdout, stderr, tc.exit, tc.wantErr)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 3 {
			t.Fatalf("dmamem-trace %q left %d files in the directory, want the 3 it started with", tc.args, len(entries))
		}
	}
}

// TestFailedRecordLeavesFileUntouched pins that record writes nothing
// until it has succeeded: a bad flag, and a generator that fails
// midway through the stream after writing part of a container, both
// leave an existing trace at the -o path byte-identical and no
// temporary file behind.
func TestFailedRecordLeavesFileUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keep.dmt")
	mustRun(t, "record", "-duration", "1ms", "-o", path)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	untouched := func(what string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the existing trace changed (%d bytes, was %d; %v)", what, len(got), len(want), err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("%s: %d files in the directory, want only the trace", what, len(entries))
		}
	}

	if code, _, _ := runTrace("record", "-workload", "bogus", "-o", path); code != 2 {
		t.Errorf("-workload bogus: exit %d, want 2", code)
	}
	untouched("-workload bogus")

	failing := errors.New("generator failed")
	err = writeFile(path, func(w io.Writer) error {
		if _, err := w.Write(want[:len(want)/2]); err != nil {
			return err
		}
		return failing
	})
	if !errors.Is(err, failing) {
		t.Errorf("writeFile = %v, want the generator's error", err)
	}
	untouched("a generator failing midway")
}

// TestEveryFlagIsRead sets each record flag to a valid value away from
// its default. The flag must change stdout (record prints the path and
// a summary of what it wrote): no flag is accepted and then ignored. A
// flag added without a case fails the test.
func TestEveryFlagIsRead(t *testing.T) {
	dir := t.TempDir()
	base := []string{"record", "-duration", "2ms", "-o", filepath.Join(dir, "ref.dmt")}
	values := map[string]string{
		"workload": "synthetic-db",
		"duration": "3ms",
		"seed":     "3",
		"chunk":    "128",
		"o":        filepath.Join(dir, "other.dmt"),
	}
	ref := mustRun(t, base...)
	fs, _ := recordCommand(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		value, ok := values[f.Name]
		if !ok {
			t.Errorf("-%s has no case saying what it changes", f.Name)
			return
		}
		args := append(append([]string{}, base...), "-"+f.Name+"="+value)
		if got := mustRun(t, args...); got == ref {
			t.Errorf("%q: stdout is the same as without -%s: the flag is ignored", args, f.Name)
		}
	})
}
