package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dmamem"
)

// TestValidateConcurrency pins the rejection of non-positive
// -parallel/-workers values and the wording the user sees: the flag
// name, the bad value, and what the minimum means.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		parallel, workers int
		wantErr           string
	}{
		{1, 1, ""},
		{8, 4, ""},
		{0, 1, "-parallel 0 must be at least 1"},
		{-1, 1, "-parallel -1 must be at least 1"},
		{1, 0, "-workers 0 must be at least 1"},
		{1, -4, "-workers -4 must be at least 1"},
		{-1, -1, "-parallel -1 must be at least 1"},
	}
	for _, tc := range cases {
		err := validateConcurrency(tc.parallel, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateConcurrency(%d, %d) = %v, want nil", tc.parallel, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateConcurrency(%d, %d) = %v, want error containing %q",
				tc.parallel, tc.workers, err, tc.wantErr)
		}
	}
}

// TestValidateEpoch pins the -epoch flag's guard rails: negative
// periods are rejected outright, and a positive period without the
// parallel engine is rejected instead of silently ignored.
func TestValidateEpoch(t *testing.T) {
	cases := []struct {
		epoch   time.Duration
		workers int
		wantErr string
	}{
		{0, 1, ""},
		{0, 4, ""},
		{50 * time.Microsecond, 2, ""},
		{time.Millisecond, 8, ""},
		{-time.Microsecond, 4, "must be nonnegative"},
		{50 * time.Microsecond, 1, "needs the parallel engine"},
	}
	for _, tc := range cases {
		err := validateEpoch(tc.epoch, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateEpoch(%v, %d) = %v, want nil", tc.epoch, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateEpoch(%v, %d) = %v, want error containing %q",
				tc.epoch, tc.workers, err, tc.wantErr)
		}
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

// TestEngineWorkers pins the flag→config mapping: -workers 1 keeps
// Simulation.Workers at 0 (the serial reference engine), higher counts
// pass through to the parallel engine.
func TestEngineWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 0}, {2, 2}, {8, 8}} {
		if got := engineWorkers(tc.in); got != tc.want {
			t.Errorf("engineWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestValidateTraceFlags pins the -trace guard: generator flags the
// user set explicitly are named and rejected, while their defaults
// (never visited by flag.Visit) pass silently.
func TestValidateTraceFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-seed", "3", "-duration", "5ms"}, ""},
		{[]string{"-trace", "t.dmt"}, ""},
		{[]string{"-trace", "t.dmt", "-cp-limit", "0.2"}, ""},
		{[]string{"-trace", "t.dmt", "-seed", "1"}, "so -seed would be ignored"},
		{[]string{"-workload", "oltp-st", "-trace", "t.dmt", "-duration", "1s"}, "so -workload, -duration would be ignored"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("dmamem-sim", flag.ContinueOnError)
		traceFile := fs.String("trace", "", "")
		fs.String("workload", "synthetic-st", "")
		fs.Duration("duration", 100*time.Millisecond, "")
		fs.Uint64("seed", 1, "")
		fs.Float64("cp-limit", 0.10, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		err := validateTraceFlags(*traceFile, set)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v, want nil", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
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

// TestBadFlagsExitBeforeWork runs the command itself (this test binary
// re-executed as dmamem-sim): generator flags beside -trace, an
// unknown -scheme and a simulation Validate rejects (too many groups,
// a non-finite float) must exit 2 naming the flag or field, before a
// trace is generated or read (nothing on stdout; the -trace path need
// not exist).
func TestBadFlagsExitBeforeWork(t *testing.T) {
	if args := os.Getenv("DMAMEM_SIM_ARGS"); args != "" {
		os.Args = append([]string{"dmamem-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for args, want := range map[string]string{
		"-trace missing.dmt -seed 7":  "so -seed would be ignored",
		"-scheme bogus":               `unknown -scheme "bogus"`,
		"-groups 200":                 "PLGroups 200 out of range",
		"-cp-limit NaN":               "CPLimit NaN is not a finite number",
		"-cp-limit +Inf":              "CPLimit +Inf is not a finite number",
		"-channels 4 -channel-bw NaN": "ChannelBandwidth NaN is not a finite number",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitBeforeWork$")
		cmd.Env = append(os.Environ(), "DMAMEM_SIM_ARGS="+args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dmamem-sim %s: err %v, want exit status 2", args, err)
			continue
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("dmamem-sim %s: stderr %q, want %q", args, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("dmamem-sim %s: stdout %q, want nothing", args, stdout.String())
		}
	}
}
