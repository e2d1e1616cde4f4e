package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmamem/internal/experiments"
)

// runBench runs dmamem-bench in process and returns its exit status
// and what it wrote.
func runBench(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// wantUsage asserts an exit status of 2 with want on stderr and
// nothing on stdout: no figure ran.
func wantUsage(t *testing.T, args []string, want string) {
	t.Helper()
	code, stdout, stderr := runBench(args...)
	if code != 2 || !strings.Contains(stderr, want) || stdout != "" {
		t.Errorf("dmamem-bench %q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr containing %q",
			args, code, stdout, stderr, want)
	}
}

// TestValidateConcurrency pins the rejection of non-positive
// -parallel values and the wording the user sees: the flag name, the
// bad value, and what the minimum means.
func TestValidateConcurrency(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-parallel 0", "-parallel 0 must be at least 1 (goroutines fanning out independent runs)"},
		{"-parallel -3", "-parallel -3 must be at least 1"},
	} {
		wantUsage(t, strings.Fields("-fig table1 "+tc.args), tc.want)
	}
}

// TestValidateEpoch pins that -epoch is gone, so a script that still
// sets it exits 2 instead of running with a period it did not get.
func TestValidateEpoch(t *testing.T) {
	wantUsage(t, []string{"-fig", "table1", "-epoch", "20us"}, "flag provided but not defined: -epoch")
}

// TestEngineWorkers pins that -workers is gone: every simulation runs
// on the one serial engine, on any number of channels, so a script
// that still asks for engine workers exits 2 before any figure runs.
func TestEngineWorkers(t *testing.T) {
	for _, n := range []string{"1", "2"} {
		wantUsage(t, []string{"-fig", "10", "-channels", "1,2,4", "-workers", n}, "flag provided but not defined: -workers")
	}
}

// TestTechFlagParsing pins the -tech flag path: the comma list routes
// through the shared experiments.ParseTechList helper, so entries are
// trimmed and case-folded, unknown names fail with the registry's
// enumeration, and duplicates (aliases included) are rejected; at the
// command, a bad list exits 2 before any figure runs.
func TestTechFlagParsing(t *testing.T) {
	got, err := experiments.ParseTechList(" DDR4-2400, lpddr4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "ddr4-2400" || got[1] != "lpddr4" {
		t.Fatalf("got %v", got)
	}
	if got, err := experiments.ParseTechList(""); err != nil || got != nil {
		t.Fatalf("empty flag: %v, %v", got, err)
	}
	if _, err := experiments.ParseTechList("sram"); err == nil ||
		!strings.Contains(err.Error(), "unknown memory technology") {
		t.Fatalf("unknown tech error: %v", err)
	}
	if _, err := experiments.ParseTechList("rdram,rdram-1600"); err == nil ||
		!strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("alias duplicate error: %v", err)
	}
	wantUsage(t, []string{"-fig", "tech", "-tech", "sram"}, "bad -tech: ")
}

// TestValidateFig accepts "all" and every figure name, and rejects
// anything else with a message listing the valid values.
func TestValidateFig(t *testing.T) {
	for _, fig := range append([]string{"all"}, figNames...) {
		if err := validateFig(fig); err != nil {
			t.Errorf("validateFig(%q) = %v, want nil", fig, err)
		}
	}
	for _, fig := range []string{"bogus", "", "11", "Table1", "all "} {
		err := validateFig(fig)
		if err == nil {
			t.Errorf("validateFig(%q) accepted", fig)
			continue
		}
		for _, want := range []string{"unknown -fig", "all, table1", "10, tech"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("validateFig(%q) = %q, want it to contain %q", fig, err, want)
			}
		}
	}
}

// TestUnknownFigExitsNonZero runs the command with -fig bogus and the
// other bad arguments: each must exit 2 with the reason on stderr and
// print nothing on stdout.
func TestUnknownFigExitsNonZero(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig bogus", `unknown -fig "bogus" (valid: all, table1,`},
		{"-fig 10 -channels 0", `bad -channels entry "0"`},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
		{"-fig table1 5", `stray arguments ["5"]`},
	} {
		wantUsage(t, strings.Fields(tc.args), tc.want)
	}
}

// TestBadDurationsExitBeforeWork rejects a -duration or -db-duration
// that is not positive with exit 2 before any figure runs, as
// dmamem-sim does; unchecked, each failed in the first figure.
func TestBadDurationsExitBeforeWork(t *testing.T) {
	for _, args := range []string{"-duration 0", "-duration -1ms", "-db-duration 0", "-db-duration -1ms"} {
		flagName, value, _ := strings.Cut(args, " ")
		d, err := time.ParseDuration(value)
		if err != nil {
			t.Fatal(err)
		}
		wantUsage(t, strings.Fields("-fig 2b "+args), fmt.Sprintf("%s %v must be positive", flagName, d))
	}
}

// TestFigAllPrintsEveryFigure runs every figure at reduced durations:
// the run must exit 0 and print each figure's title, in figNames
// order. A figure added without a title here fails the test.
func TestFigAllPrintsEveryFigure(t *testing.T) {
	titles := map[string]string{
		"table1": "Table 1:",
		"table2": "Table 2:",
		"2a":     "Figure 2(a):",
		"3":      "Figure 3:",
		"2b":     "Figure 2(b):",
		"4":      "Figure 4:",
		"5":      "Figure 5:",
		"6":      "Figure 6:",
		"7":      "Figure 7:",
		"8":      "Figure 8:",
		"9":      "Figure 9:",
		"10":     "Figure 10:",
		"tech":   "Extension: memory technology backends",
	}
	code, stdout, stderr := runBench("-fig", "all", "-duration", "5ms", "-db-duration", "2ms")
	if code != 0 {
		t.Fatalf("-fig all: exit %d\n%s", code, stderr)
	}
	rest := stdout
	for _, name := range figNames {
		title, ok := titles[name]
		if !ok {
			t.Errorf("-fig %s has no title in this test", name)
			continue
		}
		i := strings.Index(rest, title)
		if i < 0 {
			t.Errorf("-fig all: no %q (figure %s) after the figures before it", title, name)
			continue
		}
		rest = rest[i+len(title):]
	}
}

// TestEveryFlagIsRead sets each flag the command defines to a valid
// value away from its default, on the cheapest figure that reads it at
// reduced durations. The flag must change stdout, or, where same gives
// the reason, leave it byte-identical: no flag is accepted and then
// ignored. A flag added without a case fails the test.
func TestEveryFlagIsRead(t *testing.T) {
	dir := t.TempDir()
	fig := func(name string, more ...string) []string {
		return append([]string{"-fig", name, "-duration", "5ms", "-db-duration", "2ms"}, more...)
	}
	cases := map[string]struct {
		with  []string // set on both runs
		value string
		same  string
	}{
		"duration":    {with: fig("2b"), value: "6ms"},
		"db-duration": {with: fig("table2"), value: "3ms"},
		"seed":        {with: fig("2b"), value: "3"},
		"fig":         {with: fig("2b"), value: "table2"},
		"channels":    {with: fig("10"), value: "2"},
		"tech":        {with: fig("tech"), value: "lpddr4"},
		"parallel":    {with: fig("2b"), value: "1", same: "output is byte-identical at any parallelism"},
		"timing":      {with: fig("2b"), value: "true", same: "the timing summary goes to stderr"},
		"cpuprofile":  {with: fig("2b"), value: filepath.Join(dir, "cpu.pprof"), same: "the profile goes to its file"},
		"memprofile":  {with: fig("2b"), value: filepath.Join(dir, "mem.pprof"), same: "the profile goes to its file"},
	}
	fs, _ := command(io.Discard, io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		c, ok := cases[f.Name]
		if !ok {
			t.Errorf("-%s has no case saying what it changes", f.Name)
			return
		}
		code, ref, stderr := runBench(c.with...)
		if code != 0 {
			t.Fatalf("-%s reference %q: exit %d\n%s", f.Name, c.with, code, stderr)
		}
		args := append(append([]string{}, c.with...), "-"+f.Name+"="+c.value)
		code, got, stderr := runBench(args...)
		switch {
		case code != 0:
			t.Errorf("%q: exit %d\n%s", args, code, stderr)
		case c.same == "" && got == ref:
			t.Errorf("%q: stdout is the same as without -%s: the flag is ignored", args, f.Name)
		case c.same != "" && got != ref:
			t.Errorf("%q: stdout changed, but %s", args, c.same)
		}
	})
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
}
