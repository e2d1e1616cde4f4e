package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmamem"
	"dmamem/internal/cli"
	"dmamem/internal/experiments"
	"dmamem/internal/trace"
)

// runSim runs dmamem-sim in process and returns its exit status and
// what it wrote.
func runSim(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// recordTrace writes the trace dmamem-trace record writes for args (a
// -workload/-duration/-seed subset) to a fresh .dmt file: the shared
// generator table, streamed, exactly as the record command runs it.
func recordTrace(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	gen := cli.AddGen(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.dmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gen.Record(f, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantUsage asserts an exit status of 2 with want on stderr and
// nothing on stdout: the run stopped before it generated or read a
// trace.
func wantUsage(t *testing.T, args []string, want string) {
	t.Helper()
	code, stdout, stderr := runSim(args...)
	if code != 2 || !strings.Contains(stderr, want) || stdout != "" {
		t.Errorf("dmamem-sim %q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q",
			args, code, stdout, stderr, want)
	}
}

// TestValidateConcurrency pins that -parallel is gone: the -compare
// pair is two runs, so it runs on two goroutines when two CPUs are
// available.
func TestValidateConcurrency(t *testing.T) {
	wantUsage(t, []string{"-parallel", "2"}, "flag provided but not defined: -parallel")
}

// TestValidateEpoch pins that -epoch is gone, so a script that still
// sets it exits 2 instead of running with a period it did not get.
func TestValidateEpoch(t *testing.T) {
	wantUsage(t, []string{"-epoch", "20us"}, "flag provided but not defined: -epoch")
}

// TestEngineWorkers pins that -workers is gone: every simulation runs
// on the one serial engine, on any number of channels, so a script
// that still asks for engine workers exits 2 before any trace is
// generated.
func TestEngineWorkers(t *testing.T) {
	for _, n := range []string{"1", "2"} {
		wantUsage(t, []string{"-channels", "4", "-workers", n}, "flag provided but not defined: -workers")
	}
}

// TestParseTech pins the -tech flag handling: values route through
// the shared tech-list parser (trimming, case folding, registry
// validation), the empty flag means the default technology, and lists
// are rejected with a pointer at dmamem-bench.
func TestParseTech(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr string
	}{
		{"", "", ""},
		{"  ", "", ""},
		{"rdram", "rdram", ""},
		{" DDR4-2400 ", "ddr4-2400", ""},
		{"sram", "", "unknown memory technology"},
		{"ddr4-2400,lpddr4", "", "dmamem-sim runs one"},
	}
	for _, tc := range cases {
		got, err := parseTech(tc.in)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("parseTech(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseTech(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestValidateTraceFlags pins the -trace guard: generator flags the
// user set explicitly are named and rejected, while their defaults
// (never visited by flag.Visit) and the simulation flags pass.
func TestValidateTraceFlags(t *testing.T) {
	dmt := recordTrace(t, "-duration", "2ms")
	for _, args := range [][]string{
		{"-seed", "3", "-duration", "5ms"},
		{"-trace", dmt},
		{"-trace", dmt, "-cp-limit", "0.2"},
	} {
		if code, _, stderr := runSim(args...); code != 0 {
			t.Errorf("dmamem-sim %q: exit %d, stderr %q", args, code, stderr)
		}
	}
	wantUsage(t, []string{"-trace", dmt, "-seed", "1"}, "so -seed would be ignored")
	wantUsage(t, []string{"-workload", "oltp-st", "-trace", dmt, "-duration", "1s"}, "so -duration, -workload would be ignored")
}

// TestParseScheme pins the -scheme mapping and the rejection wording,
// which lists the valid names.
func TestParseScheme(t *testing.T) {
	for name, want := range map[string]dmamem.Technique{
		"baseline":  dmamem.Baseline,
		"dma-ta":    dmamem.TemporalAlignment,
		"dma-ta-pl": dmamem.TemporalAlignmentWithLayout,
		"no-pm":     dmamem.NoPowerManagement,
	} {
		if got, err := parseScheme(name); err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseScheme("dma-tap"); err == nil || !strings.Contains(err.Error(), `unknown -scheme "dma-tap" (valid: baseline,`) {
		t.Errorf("parseScheme(dma-tap) = %v", err)
	}
}

// TestBadFlagsExitBeforeWork pins that every bad flag, flag
// combination or argument exits 2 naming the flag or field, before a
// trace is generated or read (nothing on stdout; the -trace path need
// not exist). The generator flags fail as they do in dmamem-trace
// record: a zero or negative -duration and -seed 0, which the
// generator options would read as their defaults, are errors.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-trace missing.dmt -seed 7", "so -seed would be ignored"},
		{"-scheme bogus", `unknown -scheme "bogus"`},
		{"-groups 200", "PLGroups 200 out of range"},
		{"-cp-limit NaN", "CPLimit NaN is not a finite number"},
		{"-cp-limit +Inf", "CPLimit +Inf is not a finite number"},
		{"-channels 4 -channel-bw NaN", "ChannelBandwidth NaN is not a finite number"},
		{"-stripe-pages 4", "need Channels set"},
		{"-tech sram", "unknown memory technology"},
		{"-workload bogus", `unknown -workload "bogus" (valid: synthetic-st, synthetic-db, oltp-st, oltp-db)`},
		{"-seed 0", "-seed 0 is not a seed"},
		{"-duration 0", "-duration 0s must be positive"},
		{"-duration -1ms", "-duration -1ms must be positive"},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
		{"-json trace.dmt", `stray arguments ["trace.dmt"]`},
	} {
		wantUsage(t, strings.Fields(tc.args), tc.want)
	}
}

// TestJSONStdoutIsOneDocument runs the command with -json on a
// generated OLTP-St trace and on the same trace replayed from the .dmt
// file SaveFile wrote. Each stdout must parse as exactly one JSON
// document, and the two must be equal bytes: the file keeps everything
// the report depends on, the client-response metadata behind the
// derived mu included.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	tr, err := dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oltp-st.dmt")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, args := range [][]string{{"-json", "-workload", "oltp-st", "-duration", "10ms"}, {"-json", "-trace", path}} {
		code, stdout, stderr := runSim(args...)
		if code != 0 {
			t.Fatalf("dmamem-sim %q: exit %d\n%s", args, code, stderr)
		}
		dec := json.NewDecoder(strings.NewReader(stdout))
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("dmamem-sim %q: stdout is not JSON: %v\n%s", args, err, stdout)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("dmamem-sim %q: stdout holds more than one JSON document:\n%s", args, stdout)
		}
		docs = append(docs, stdout)
	}
	if docs[0] != docs[1] {
		t.Fatalf("replayed .dmt report differs from the generated trace's:\ngenerated: %s\nreplayed:  %s", docs[0], docs[1])
	}
}

// TestRecordedTraceReplaysAsGenerated pins that the generator flags
// mean one trace in both commands: for every workload, what
// dmamem-trace record writes for -seed 3 -duration 3ms, replayed with
// -trace, reports the same -json bytes as generating it in place.
func TestRecordedTraceReplaysAsGenerated(t *testing.T) {
	for _, name := range experiments.WorkloadNames() { // the -workload values, lowercased
		w := strings.ToLower(name)
		gen := []string{"-workload", w, "-seed", "3", "-duration", "3ms"}
		_, generated, _ := runSim(append([]string{"-json"}, gen...)...)
		code, replayed, stderr := runSim("-json", "-trace", recordTrace(t, gen...))
		if code != 0 || generated == "" || replayed != generated {
			t.Errorf("%s: exit %d (%s); replayed report\n%s\ndiffers from the generated one\n%s", w, code, stderr, replayed, generated)
		}
	}
}

// TestNonDMTTraceFails pins that -trace reads only .dmt containers:
// any other file exits 1 on the container's bad-magic error with
// nothing on stdout.
func TestNonDMTTraceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, append([]byte("DMAT"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSim("-trace", path)
	if code != 1 || !strings.Contains(stderr, "bad magic") || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and only the bad-magic error", code, stdout, stderr)
	}
}

// TestEveryFlagIsRead sets each flag the command defines to a valid
// value away from its default. The flag must change stdout, or, where
// same gives the reason, leave it byte-identical: no flag is accepted
// and then ignored. A flag added without a case fails the test.
func TestEveryFlagIsRead(t *testing.T) {
	dmt := recordTrace(t, "-workload", "oltp-st", "-duration", "5ms")
	short := []string{"-duration", "5ms"}
	// Uncapped channels stripe pages but limit nothing, so the serial
	// engine prints one channel's report; under a cap the count matters.
	capped := []string{"-duration", "5ms", "-channels", "2", "-channel-bw", "1e9"}
	cases := map[string]struct {
		with  []string // set on both runs
		value string
		same  string
	}{
		"trace":        {value: dmt},
		"workload":     {with: short, value: "oltp-st"},
		"duration":     {with: short, value: "6ms"},
		"seed":         {with: short, value: "3"},
		"scheme":       {with: short, value: "dma-ta"},
		"tech":         {with: short, value: "ddr4-2400"},
		"cp-limit":     {with: short, value: "0.3"},
		"groups":       {with: []string{"-duration", "20ms"}, value: "3"},
		"channels":     {with: capped, value: "4"},
		"stripe-pages": {with: capped, value: "8"},
		"channel-bw":   {with: []string{"-duration", "5ms", "-channels", "2"}, value: "1e9"},
		"compare":      {with: short, value: "false"},
		"json":         {with: short, value: "true"},
	}
	fs, _ := command(io.Discard, io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		c, ok := cases[f.Name]
		if !ok {
			t.Errorf("-%s has no case saying what it changes", f.Name)
			return
		}
		code, ref, stderr := runSim(c.with...)
		if code != 0 {
			t.Fatalf("-%s reference %q: exit %d\n%s", f.Name, c.with, code, stderr)
		}
		args := append(append([]string{}, c.with...), "-"+f.Name+"="+c.value)
		code, got, stderr := runSim(args...)
		switch {
		case code != 0:
			t.Errorf("%q: exit %d\n%s", args, code, stderr)
		case c.same == "" && got == ref:
			t.Errorf("%q: stdout is the same as without -%s: the flag is ignored", args, f.Name)
		case c.same != "" && got != ref:
			t.Errorf("%q: stdout changed, but %s", args, c.same)
		}
	})
}
