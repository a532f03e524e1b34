package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the layers a CPU profile is folded into. Each sample counts
// once, for the package of its leaf frame (flat attribution).
var cpuLayers = []string{
	"sim", "cache", "dram", "core", "prefetch", "vm", "ringbuf",
	"tracestore", "flate", "workloads", "harness", "server", "net_http", "json",
	"campaign", "syscall", "runtime", "other",
}

const modulePrefix = "github.com/bertisim/berti/internal/"

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "cache", "dram", "core", "prefetch", "vm", "ringbuf",
			"tracestore", "workloads", "harness", "server", "campaign":
			return top
		}
		return "other"
	}
	switch {
	case pkg == "compress/flate":
		return "flate"
	case pkg == "encoding/binary":
		// Only the trace container decodes varints on the hot path.
		return "tracestore"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net_http"
	case pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") ||
		pkg == "internal/runtime/syscall" || pkg == "internal/poll":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "github.com/x/y/internal/cache.(*Cache).Tick" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile decodes a gzipped runtime/pprof CPU profile and returns the
// share of samples per layer plus the sample count.
func foldProfile(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := p.strings[p.funcName[p.locFunc[s.locs[0]]]]
		counts[layerOf(packageOf(fn))] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

// profile holds the parts of the pprof protobuf the fold needs.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("perfbench: malformed profile")

// decodeProfile parses the profile.proto fields: sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					for _, x := range appendVarints(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fn uint64
			first := true
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if !first {
						return nil
					}
					first = false
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field that arrived either as one
// unpacked value (data == nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// fields walks one protobuf message, calling f with each field number and
// either its varint value or its length-delimited payload.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
