package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// shareLayers are the buckets a profile sample can land in: the
// dmamem package of its innermost dmamem frame, "other" for the
// remaining dmamem packages (the public API among them), "perfbench"
// for samples with no dmamem frame but one of the benchmark's own (its
// HTTP clients), and "runtime" for the rest (collector, scheduler).
var shareLayers = []string{
	"sim", "controller", "bus", "layout", "trace", "core", "energy", "memsys", "policy",
	"metrics", "server", "synth", "experiments", "service", "other", "perfbench", "runtime",
}

// profile is the part of a pprof CPU profile the folding needs: each
// sample's stack, leaf first, as function names.
type profile struct {
	stacks  [][]string
	samples []int64
}

// layerOf buckets one sample's stack.
func layerOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case pkg == "dmamem":
			return "other"
		case strings.HasPrefix(pkg, "dmamem/internal/"):
			name := pkg[strings.LastIndex(pkg, "/")+1:]
			for _, l := range shareLayers {
				if l == name {
					return l
				}
			}
			return "other"
		case pkg == "main":
			bench = true
		}
	}
	if bench {
		return "perfbench"
	}
	return "runtime"
}

// packageOf returns the import path of a function symbol such as
// "dmamem/internal/layout.(*Manager).Rebalance".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// shares folds the profile by layer; the shares sum to 1.
func (p *profile) shares() (map[string]float64, int64) {
	out := map[string]float64{}
	var total int64
	for i, st := range p.stacks {
		out[layerOf(st)] += float64(p.samples[i])
		total += p.samples[i]
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, total
}

// writeFolded stores the profile in folded-stack form (root;...;leaf
// count per line, the input of flame-graph tools), followed by the
// layer shares as comment lines.
func (p *profile) writeFolded(path string) error {
	counts := map[string]int64{}
	for i, st := range p.stacks {
		rev := make([]string, len(st))
		for j, fn := range st {
			rev[len(st)-1-j] = fn
		}
		counts[strings.Join(rev, ";")] += p.samples[i]
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	sh, total := p.shares()
	fmt.Fprintf(&b, "# %d samples; self share by innermost dmamem package:\n", total)
	for _, l := range shareLayers {
		fmt.Fprintf(&b, "# %s %.4f\n", l, sh[l])
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, counts[k])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// parseProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only sample stacks and counts.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			})
			if err != nil || len(values) == 0 {
				return fmt.Errorf("bad sample: %v", err)
			}
			s.count = int64(values[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.samples = append(p.samples, s.count)
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, packed (b
// set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
