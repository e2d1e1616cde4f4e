package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// traceDigest hashes what a generator hands the simulator: the name,
// the Meta calibration inputs and every field of every record, in
// order. Two traces share a digest only if they are byte for byte the
// same input to a run.
type traceDigest struct {
	h   hash.Hash
	buf [24]byte
}

func newTraceDigest(name string, m trace.Meta) *traceDigest {
	d := &traceDigest{h: sha256.New()}
	d.h.Write([]byte(name))
	b := d.buf[:16]
	binary.LittleEndian.PutUint64(b[0:], uint64(m.MeanClientResponse))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.TransfersPerClientRequest))
	d.h.Write(b)
	return d
}

func (d *traceDigest) add(r trace.Record) error {
	b := d.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
	b[8], b[9], b[10] = byte(r.Kind), byte(r.Source), r.Bus
	binary.LittleEndian.PutUint16(b[11:], r.Pages)
	binary.LittleEndian.PutUint32(b[13:], uint32(r.Page))
	d.h.Write(b[:17])
	return nil
}

func (d *traceDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func digestTrace(tr *trace.Trace) string {
	d := newTraceDigest(tr.Name, tr.Meta)
	for _, r := range tr.Records {
		d.add(r)
	}
	return d.sum()
}

// generatedTraceDigests pins the four Table 2 generators, exactly as
// the Suite configures them, for seeds {1, 2, 7919} at the golden
// sizes (4 ms, 2 ms for the -Db traces) and at 30 ms. The values were
// recorded from the map-and-pointer buffer cache and the int
// permutation, before either was replaced, so any change to a
// generator's output fails here rather than only in a report golden.
var generatedTraceDigests = map[string]string{
	"OLTP-Db/seed1/2ms":               "425c9f0e1c68f6e06b89e0286da49f572a87076eac26ac00838746ca45bdd8f3",
	"OLTP-Db/seed1/30ms":              "a2663a0cdaaab97ca467bf640c965a592e7263a1f44ef7b0ca1605c7ba413a95",
	"OLTP-Db/seed2/2ms":               "849f2cb7f99878a7d03e8d2955ebd8f6d1e15d25b7f4f71282539d6726173232",
	"OLTP-Db/seed2/30ms":              "8b235c0379917fd9dd4562695617946f25dec8d8213d56b334efb864c41cc020",
	"OLTP-Db/seed7919/2ms":            "7dde338b12ad89434d6e5245fc3c749de96972d2a6e45e436f171be69cc381b0",
	"OLTP-Db/seed7919/30ms":           "cadc20c027a7dfcaf0efa2685e275e92fea8d36387dc3e4d26f4017a4f4236dd",
	"OLTP-St/seed1/30ms":              "3f9c872ad06be070370fa2f0d1238fb689b22185a7da40926e6a56e432f0df5c",
	"OLTP-St/seed1/4ms":               "9ea4ec8741b0c12c8a4d7574fd447483e13219efefaf54798672b18ae38ff1d6",
	"OLTP-St/seed2/30ms":              "00765191c01f92c820b9a56458d80fbb86534f0cd8209ce0fb1a932d0bf29b93",
	"OLTP-St/seed2/4ms":               "95b51095bd23bdcc9732ec3f4582234ff746bacd960e39e6fdf9e2d9e47e3c40",
	"OLTP-St/seed7919/30ms":           "85abf69c1761027848347120ffbf77bb9931ef3ff96b5b8ee36a4772365877d5",
	"OLTP-St/seed7919/4ms":            "150dcffb18c3887df936dffbd16b319c72efea083c05201433ecd303b885c13f",
	"Synthetic-Db-ppt50/seed1/4ms":    "fce040b8ffeed8fbb6b0859f80da7d5baed72955b07b6204b66c86643078f6f4",
	"Synthetic-Db-ppt50/seed2/4ms":    "c6a59b6ecdb399b88ad1bc26ce63dca33e06812e43ad25f806b71997aeff077f",
	"Synthetic-Db-ppt50/seed7919/4ms": "2675401db81b3d294fc74649336581be0b047e933edc2cb8ce3b9ceaf4db4305",
	"Synthetic-Db/seed1/2ms":          "870899d3a46b3857f14eb2b3d6bffa2879383c262fdd6e18fd0a9508fd3c827a",
	"Synthetic-Db/seed1/30ms":         "cdbdda84a24481f92faff0ac3c7723eda520569eeb42bef7968bb1f7548f55f0",
	"Synthetic-Db/seed2/2ms":          "9d305120b5cd71a6b27a6f695923b56adf0829ce8b61b03932c52a69be964183",
	"Synthetic-Db/seed2/30ms":         "552770d2c3a84ce9296b9573ede9021a4fbf29a45d21f51749635e96d5935dc7",
	"Synthetic-Db/seed7919/2ms":       "cc0d299a8e77fa86788f3ddbc9a7062bc69a4fdcfd3211434d87589ebda2a968",
	"Synthetic-Db/seed7919/30ms":      "b8ac58f7ad5833feddef7a982f24e1e5ad986be5ecf3af01cacc33262be04aa5",
	"Synthetic-St/seed1/30ms":         "fefbe4c171d52a7c53b03fab9a732aa8f6f0d28e6fdd2278022373b3b5158a0b",
	"Synthetic-St/seed1/4ms":          "374ae8bf2c41a8858fcedcdaa4a0fb212d8a81e12e5d1be570813fd7fe65e69e",
	"Synthetic-St/seed2/30ms":         "5126abc8dd76ec454e06e872f9d2980fb8ad6374fd1ab164b0a78a4385f9cde9",
	"Synthetic-St/seed2/4ms":          "b435b9e0294b807244d254a903dc66e14017f7105148bfbc109a276929159bed",
	"Synthetic-St/seed7919/30ms":      "70dde496815cc8d9363b3656c8b80584a01160e7b0e9da0ea5d2cbf9349b8db9",
	"Synthetic-St/seed7919/4ms":       "0fc1fe5148289aa2bdb94c999496363b7077c74906010d07e8197a4e7dad58cf",
}

// digestKey names one pinned trace.
func digestKey(workload string, seed uint64, d sim.Duration) string {
	return fmt.Sprintf("%s/seed%d/%dms", workload, seed, d/sim.Millisecond)
}

// digestSizes are the two suite sizes pinned: {Duration, DbDuration}.
var digestSizes = [][2]sim.Duration{
	{4 * sim.Millisecond, 2 * sim.Millisecond},
	{30 * sim.Millisecond, 30 * sim.Millisecond},
}

// TestGeneratedTraceDigests regenerates every pinned trace through the
// Suite and, for the synthetic ones, through the GenerateStTo and
// GenerateDbTo streams, which must match the in-memory digest.
func TestGeneratedTraceDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7919} {
		for _, size := range digestSizes {
			s := NewSuite(size[0], seed)
			s.DbDuration = size[1]
			for _, name := range workloadNames {
				d := size[0]
				if name == "OLTP-Db" || name == "Synthetic-Db" {
					d = size[1]
				}
				key := digestKey(name, seed, d)
				tr, err := s.workload(name)
				if err != nil {
					t.Fatal(err)
				}
				got := digestTrace(tr)
				if want := generatedTraceDigests[key]; got != want {
					t.Errorf("%s: digest %s, pinned %s", key, got, want)
				}
				var stream *traceDigest
				switch name {
				case "Synthetic-St":
					cfg := synth.DefaultSt()
					cfg.Duration, cfg.Seed = d, seed+1
					stream = newTraceDigest(name, synth.SyntheticMeta())
					err = synth.GenerateStTo(cfg, stream.add)
				case "Synthetic-Db":
					cfg := synth.DefaultDb()
					cfg.St.Duration, cfg.St.Seed = d, seed+2
					stream = newTraceDigest(name, synth.SyntheticMeta())
					err = synth.GenerateDbTo(cfg, stream.add)
				default:
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if s := stream.sum(); s != got {
					t.Errorf("%s: streamed digest %s, in-memory %s", key, s, got)
				}
			}
		}
	}
}

// TestGeneratedFig9TraceDigests pins Synthetic-Db's Figure 9 mode
// (a burst of processor accesses per transfer), the mode that keeps
// the most records waiting in GenerateDbTo's merge heap.
func TestGeneratedFig9TraceDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7919} {
		cfg := synth.DefaultDb()
		cfg.St.Duration, cfg.St.Seed, cfg.ProcPerTransfer = 4*sim.Millisecond, seed, 50
		tr, err := synth.GenerateDb(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := digestKey("Synthetic-Db-ppt50", seed, cfg.St.Duration)
		got := digestTrace(tr)
		if want := generatedTraceDigests[key]; got != want {
			t.Errorf("%s: digest %s, pinned %s", key, got, want)
		}
		stream := newTraceDigest(tr.Name, synth.SyntheticMeta())
		if err := synth.GenerateDbTo(cfg, stream.add); err != nil {
			t.Fatal(err)
		}
		if s := stream.sum(); s != got {
			t.Errorf("%s: streamed digest %s, in-memory %s", key, s, got)
		}
	}
}
