package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// modulePath is the import path of the simulator; functions under it are
// "repo frames" for layer attribution.
const modulePath = "github.com/vanetsec/georoute"

// harnessLayer names samples whose innermost owned frame is this harness
// (package main) rather than the simulator.
const harnessLayer = "perfbench"

// runtimeLayer receives allocation and GC samples and samples with no
// repo frame at all.
const runtimeLayer = "runtime"

// layers are the simulator layers the benchmark reports, named after the
// internal/ packages, plus the Go runtime. Samples attributed to any other
// package (geo, metrics, telemetry, the facade, the harness, ...) count as
// unattributed.
var layers = []string{
	"geonet", "radio", "security", "traffic", "sim", "detect",
	"attack", "experiment", "campaign", "vanet", runtimeLayer,
}

// stackSample is one CPU profile sample: function names leaf first (inlined
// callees before their callers) and the CPU time it stands for.
type stackSample struct {
	stack []string
	nanos int64
}

// allocGCPrefixes are runtime function-name prefixes (after "runtime.")
// that mark a sample as allocation or garbage-collection work.
var allocGCPrefixes = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"rawstring", "rawbyteslice", "rawruneslice", "nextFreeFast", "profilealloc",
	"mProf_Malloc", "deductAssistCredit", "memclrNoHeapPointersChunked",
	"gc", "scan", "greyobject", "markroot", "markBits", "sweep", "bgsweep",
	"bgscavenge", "wbBuf", "bulkBarrier", "heapBits", "heapSetType",
	"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*gcWork)",
	"(*gcControllerState)", "(*pageAlloc)", "(*scavenger", "(*sweepLocked)",
}

// isAllocOrGC reports whether fn is a runtime allocation or GC function.
func isAllocOrGC(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range allocGCPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// ownedLayer returns the layer of a function defined in the simulator or
// in this harness, and false for standard-library and runtime functions.
func ownedLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return harnessLayer, true
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return "", false
	}
	switch {
	case strings.HasPrefix(rest, "."):
		return "georoute", true
	case strings.HasPrefix(rest, "/internal/"):
		rest = rest[len("/internal/"):]
	case strings.HasPrefix(rest, "/"):
		rest = rest[1:]
	default:
		return "", false // a different module sharing the prefix
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute assigns a stack (leaf first) to a layer. Walking from the
// leaf, an allocation or GC frame met before any owned frame makes the
// sample runtime work; otherwise the innermost owned frame's package takes
// it, so standard-library frames (maps, math, crypto) count toward the
// repo code that called them. A stack without an owned frame is runtime.
func attribute(stack []string) string {
	for _, fn := range stack {
		if isAllocOrGC(fn) {
			return runtimeLayer
		}
		if l, ok := ownedLayer(fn); ok {
			return l
		}
	}
	return runtimeLayer
}

// layerTable sums sample CPU time per attributed layer, in seconds.
func layerTable(samples []stackSample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		out[attribute(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// parseCPUProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into leaf-first stack samples weighted by CPU time.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   []int64 // sample_type string indices
		rawSample [][]byte
		funcName  = map[uint64]int64{}    // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2:
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the cpu
	// column, falling back to the last one.
	valIdx := len(typeIdx) - 1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, rs := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(rs, func(n int, v uint64, b []byte) error {
			switch {
			case n == 1 && b == nil:
				locs = append(locs, v)
			case n == 1:
				return eachPacked(b, func(x uint64) { locs = append(locs, x) })
			case n == 2 && b == nil:
				vals = append(vals, int64(v))
			case n == 2:
				return eachPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valIdx < 0 || valIdx >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		out = append(out, stackSample{stack: stack, nanos: vals[valIdx]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint and fixed
// fields pass their value with a nil slice; length-delimited fields pass
// their bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: short fixed field")
			}
			v := uint64(binary.LittleEndian.Uint32(b))
			if size == 8 {
				v = binary.LittleEndian.Uint64(b)
			}
			b = b[size:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachPacked decodes a packed repeated varint field.
func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
