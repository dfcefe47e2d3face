package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileShares runs fn under a runtime/pprof CPU profile and reports each
// layer's share of the profile's self time (samples whose innermost frame
// is in the layer's package) as <layer>.cpu_share.
func profileShares(r *report, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	shares, total := foldShares(stacks)
	for _, name := range sortedKeys(shares) {
		r.set(name, shares[name])
	}
	r.note("CPU profile: %d ms of samples", total/1e6)
	return nil
}

// shareName maps a Go package path to the metric its self time counts
// toward: the repository's internal packages by directory name, math/rand
// as the workload generators' random number source; "" for the rest.
func shareName(pkg string) string {
	switch {
	case pkg == "hetsim/internal/experiments/pool":
		return "pool.cpu_share"
	case strings.HasPrefix(pkg, "hetsim/internal/"):
		return strings.TrimPrefix(pkg, "hetsim/internal/") + ".cpu_share"
	case pkg == "math/rand":
		return "workloads.rng_cpu_share"
	}
	return ""
}

// daemonFrame marks a stack running on an HTTP server goroutine, so the
// daemon's encoding and HTTP work is told apart from the load generator's
// client side in the same process.
const daemonFrame = "net/http.(*conn).serve"

// foldShares attributes each sample's weight to the layer of its innermost
// frame and returns the shares by metric name, plus the total weight.
// Packages without a per-layer metric count only toward the total.
func foldShares(stacks []stack) (map[string]float64, int64) {
	shares := map[string]float64{}
	for _, m := range perLayer {
		if strings.HasSuffix(m.name, "cpu_share") {
			shares[m.name] = 0
		}
	}
	var total int64
	for _, s := range stacks {
		total += s.weight
	}
	if total == 0 {
		return shares, 0
	}
	w := 1 / float64(total)
	for _, s := range stacks {
		if len(s.funcs) == 0 {
			continue
		}
		pkg := pkgOf(s.funcs[0])
		if name := shareName(pkg); name != "" {
			if _, ok := shares[name]; ok {
				shares[name] += float64(s.weight) * w
			}
		}
		if pkg == "encoding/json" || pkg == "net/http" {
			for _, f := range s.funcs {
				if f == daemonFrame {
					shares["serve.encode_cpu_share"] += float64(s.weight) * w
					break
				}
			}
		}
	}
	return shares, total
}

// pkgOf extracts the package path from a Go symbol name such as
// "hetsim/internal/sim.(*Engine).pop" or "math/rand.(*Rand).Int63".
// Generic instantiations ("pool.(*Pool[go.shape...]).one") may carry
// slashes inside brackets, so the path ends at the first dot after the
// last slash that precedes any '(' or '['.
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return fn[:slash+1+dot]
}

// stack is one CPU-profile sample: function names innermost first (inlined
// frames expanded) and the sample's weight in nanoseconds.
type stack struct {
	funcs  []string
	weight int64
}

// parseCPUProfile decodes the gzipped protocol-buffer profile that
// runtime/pprof writes, keeping only what foldShares needs: samples,
// locations, functions and the string table.
func parseCPUProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // Sample.location_id
					s.locs = appendVarints(s.locs, v, b)
				case 2: // Sample.value
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{weight: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protocol-buffer message, passing each
// field's number and either its varint value or its length-delimited
// bytes (fixed-width fields are skipped; pprof profiles use none).
func eachField(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("malformed profile")

// appendVarints appends a repeated integer field's values: one varint v
// (unpacked encoding) or the varints packed in body.
func appendVarints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
