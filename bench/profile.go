package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileBuckets is a CPU profile's flat samples bucketed by layer.
type profileBuckets struct {
	// TotalNs is the CPU time the profile covers, summed over threads.
	TotalNs float64 `json:"total_ns"`
	// ByLayer maps a layer bucket ("router", "runtime.gc", ...) to its CPU
	// nanoseconds.
	ByLayer map[string]float64 `json:"by_layer"`
	// Unattributed maps the leaf package of every sample no layer claimed
	// to its CPU nanoseconds.
	Unattributed map[string]float64 `json:"unattributed,omitempty"`
}

// layerOf maps a package of this module to the layer charged for it.
// Packages without a row in the per-layer table fold into the layer
// whose code calls them: flits are what links carry, deadlock recovery
// runs inside the router, topology answers the routing function, stats
// and the kernel selector belong to network assembly, power is evaluated
// by the campaign aggregator.
var layerOf = map[string]string{
	"sim": "sim", "router": "router", "link": "link", "ecc": "ecc", "fault": "fault",
	"ac": "ac", "traffic": "traffic", "routing": "routing", "faultmap": "faultmap",
	"network": "network", "campaign": "campaign", "serve": "serve", "fabric": "fabric",
	"obs": "obs", "trace": "trace",
	"flit": "link", "deadlock": "router", "topology": "routing", "stats": "network",
	"kernel": "network", "power": "campaign", "invariant": "network",
}

const modulePrefix = "ftnoc/internal/"

// gcRoots are the runtime entry points under which CPU time is the
// garbage collector's.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.gcDrain": true, "runtime.sweepone": true,
}

// packageOf extracts the import path from a symbol name such as
// "ftnoc/internal/sim.(*Pipe[go.shape.struct {...}]).Push".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		(strings.HasPrefix(pkg, "internal/runtime/") && pkg != "internal/runtime/syscall") ||
		pkg == "internal/cpu" || pkg == "internal/bytealg" || pkg == "internal/abi"
}

func isHTTPJSON(pkg string) bool {
	return pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "encoding/json")
}

// classify charges one sample, given its stack leaf first. The leaf's
// package decides: a package of this module is its layer; the runtime
// is runtime.gc under a collector root and runtime.other elsewhere. A
// leaf in any other library is a helper of its caller: under net/http
// or encoding/json it is stdlib.http_json, else it goes to the nearest
// frame of this module.
func classify(stack []string) (bucket string, ok bool) {
	leaf := packageOf(stack[0])
	if name, found := strings.CutPrefix(leaf, modulePrefix); found {
		layer, ok := layerOf[name]
		return layer, ok
	}
	if isRuntime(leaf) {
		for _, fn := range stack {
			if gcRoots[fn] {
				return "runtime.gc", true
			}
		}
		return "runtime.other", true
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if isHTTPJSON(pkg) {
			return "stdlib.http_json", true
		}
		if name, found := strings.CutPrefix(pkg, modulePrefix); found {
			layer, ok := layerOf[name]
			return layer, ok
		}
	}
	return "", false
}

// bucketProfile parses a gzipped pprof CPU profile and buckets its
// samples' CPU time by layer.
func bucketProfile(gz []byte) (*profileBuckets, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := &profileBuckets{ByLayer: make(map[string]float64), Unattributed: make(map[string]float64)}
	var stack []string
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		if len(stack) == 0 {
			continue
		}
		ns := float64(s.values[len(s.values)-1]) // CPU profiles carry (samples, cpu ns)
		out.TotalNs += ns
		if bucket, ok := classify(stack); ok {
			out.ByLayer[bucket] += ns
		} else {
			out.Unattributed[packageOf(stack[0])] += ns
		}
	}
	return out, nil
}

// The rest of the file reads the handful of profile.proto fields the
// bucketing needs. The standard library writes this format
// (runtime/pprof) but exports no reader for it.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

var errTruncated = errors.New("truncated protobuf")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// next returns the following field: its number, and either its varint
// value (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped; profile.proto has none the bucketing reads.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	for len(r.b) > 0 {
		key, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			v, err = r.varint()
			return field, v, nil, err
		case 2:
			n, err := r.varint()
			if err != nil {
				return 0, 0, nil, err
			}
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, nil
		case 1, 5:
			width := 8
			if key&7 == 5 {
				width = 4
			}
			if len(r.b) < width {
				return 0, 0, nil, errTruncated
			}
			r.b = r.b[width:]
		default:
			return 0, 0, nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, io.EOF
}

// repeated appends a repeated scalar field's occurrence: one value when
// unpacked, the whole run when packed.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	r := protoReader{raw}
	for {
		field, _, data, err := r.next()
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample{location_id = 1, value = 2}
			var s profSample
			var vals []uint64
			m := protoReader{data}
			for {
				f, v, d, err := m.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeated(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			var id uint64
			var funcs []uint64
			m := protoReader{data}
			for {
				f, v, d, err := m.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoReader{d}
					for {
						lf, lv, _, err := line.next()
						if err == io.EOF {
							break
						}
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			m := protoReader{data}
			for {
				f, v, _, err := m.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
}
