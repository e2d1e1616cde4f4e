package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dmamem/internal/experiments"
)

// FuzzJobDecode feeds arbitrary bytes to the job decoder and
// validator — the daemon's entire public attack surface. Whatever a
// tenant posts, the pipeline must fail with an error wrapping
// errBadJob, never panic, and never admit a job the validators would
// reject (mirroring the .dmt container decoder's FuzzDMTDecode
// contract). Jobs that do decode must survive a marshal/decode round
// trip unchanged, and normalization must be deterministic: the same
// body always produces the same canonical hash.
func FuzzJobDecode(f *testing.F) {
	// The worked example from docs/SERVICE.md plus each job kind.
	f.Add([]byte(`{"Workload":"OLTP-St"}`))
	f.Add([]byte(`{"Tenant":"acme","Workload":"Synthetic-St","Scheme":"dma-ta-pl","CPLimit":0.15,"PLGroups":4}`))
	f.Add([]byte(`{"Grid":{"Name":"fig10","Workloads":["Synthetic-St"],"BusBW":[1.064e9],"Channels":[1,2,4]}}`))
	f.Add([]byte(`{"Grid":{"Name":"noop","Points":3}}`))
	// Malformed shapes: truncations, unknown fields, trailing bytes.
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"Workload":"OLTP-St"`))
	f.Add([]byte(`{"Wrokload":"OLTP-St"}`))
	f.Add([]byte(`{"Workload":"OLTP-St","Workers":2}`))
	f.Add([]byte(`{"Workload":"OLTP-St"}{"Workload":"OLTP-St"}`))
	f.Add([]byte(`[{"Workload":"OLTP-St"}]`))
	f.Add([]byte(`not json at all`))
	// Hostile numbers: overflow to Inf, NaN spellings, negatives.
	f.Add([]byte(`{"Workload":"OLTP-St","CPLimit":1e999}`))
	f.Add([]byte(`{"Workload":"OLTP-St","CPLimit":NaN}`))
	f.Add([]byte(`{"Workload":"OLTP-St","DurationMs":-1}`))
	f.Add([]byte(`{"Workload":"OLTP-St","DurationMs":1e300}`))
	f.Add([]byte(`{"Grid":{"Name":"noop","Points":-5}}`))
	f.Add([]byte(`{"Grid":{"Name":"noop","Points":99999999}}`))
	// Version skew and enumeration misses.
	f.Add([]byte(`{"Version":2,"Workload":"OLTP-St"}`))
	f.Add([]byte(`{"Version":-1,"Workload":"OLTP-St"}`))
	f.Add([]byte(`{"Workload":"oltp-st"}`))
	f.Add([]byte(`{"Workload":"OLTP-St","Scheme":"DMA-TA"}`))
	f.Add([]byte(`{"Workload":"OLTP-St","Tech":"sram-9000"}`))
	f.Add([]byte(`{"Grid":{"Name":"fig11"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJob(data)
		if err != nil {
			if !errors.Is(err, errBadJob) {
				t.Fatalf("decode error does not wrap errBadJob: %v", err)
			}
			if !reflect.DeepEqual(j, Job{}) {
				t.Fatalf("decoder returned both a job and an error: %+v, %v", j, err)
			}
			return // rejection is the expected outcome for random bytes
		}
		// Round-trip identity: what decoded must re-encode and decode
		// back to the same job.
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("re-encoding a decoded job: %v", err)
		}
		j2, err := DecodeJob(b)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if !reflect.DeepEqual(j, j2) {
			t.Fatalf("round trip changed the job: %+v -> %+v", j, j2)
		}
		// Validation must classify, never panic; admitted jobs must
		// normalize deterministically.
		w1, n1, err := j.normalize(4096)
		if err != nil {
			if !errors.Is(err, errBadJob) {
				t.Fatalf("normalize error does not wrap errBadJob: %v", err)
			}
			return
		}
		if n1 < 0 {
			t.Fatalf("normalize admitted a negative point count %d", n1)
		}
		h1, err := experiments.CanonicalHash(w1)
		if err != nil {
			t.Fatalf("hashing a normalized job: %v", err)
		}
		w2, n2, err := j.normalize(4096)
		if err != nil {
			t.Fatalf("second normalization of an admitted job failed: %v", err)
		}
		h2, err := experiments.CanonicalHash(w2)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 || n1 != n2 {
			t.Fatalf("normalization is not deterministic: %s/%d vs %s/%d", h1, n1, h2, n2)
		}
		// The tenant must never leak into the canonical spec: the same
		// job under another tenant shares the cache key.
		jt := j
		jt.Tenant = "other-" + j.Tenant
		wt, _, err := jt.normalize(4096)
		if err != nil {
			t.Fatalf("tenant rename broke validation: %v", err)
		}
		ht, err := experiments.CanonicalHash(wt)
		if err != nil {
			t.Fatal(err)
		}
		if ht != h1 {
			t.Fatalf("tenant identity leaked into the canonical hash: %s vs %s", ht, h1)
		}
	})
}
