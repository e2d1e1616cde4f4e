package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload's code on inputs small enough for a
// unit test.
var tinySize = sizes{
	storage:   10 * time.Millisecond,
	database:  500 * time.Microsecond,
	synthetic: 20 * time.Millisecond,
	setupReps: 2,
	coldEvery: 2,
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json at tiny
// size, untraced and traced, and checks that the run is correct and
// prints exactly the metrics BENCHMARK.json names, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := spec.EndToEnd
			if traced {
				name, want = w.Name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				o := options{
					workload: w.Name, seed: defaultSeed, seconds: 200 * time.Millisecond, traced: traced,
					out: t.TempDir(), root: "..", size: tinySize, log: &log, info: &log,
				}
				res, err := runWorkload(&o)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced {
					checkLayerShares(t, w.Name, res.Metrics)
				}
			})
		}
	}
}

// checkLayerShares checks that the self shares cover every sample and
// that layers a workload does not exercise read 0.
func checkLayerShares(t *testing.T, workload string, ms map[string]metric) {
	sum := 0.0
	for name, m := range ms {
		if strings.HasSuffix(name, ".self_share") {
			sum += m.Value
		}
		if workload != "daemon" && strings.HasPrefix(name, "service.") && m.Value != 0 {
			t.Errorf("%s on %s = %v, want 0", name, workload, m.Value)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	if workload == "database-dmt" && ms["layout.rebalance_ms"].Value != 0 {
		t.Errorf("layout replayed on database-dmt, whose schemes have no layout")
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "storage", "--seconds", "0"},
		{"--workload", "storage", "--trace", "2"},
	} {
		var out, errs bytes.Buffer
		if code := run(append(args, "--out", t.TempDir()), &out, &errs); code == 0 {
			t.Errorf("%v: exit 0, want an error", args)
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v printed a result: %s", args, out.String())
		}
	}
}
