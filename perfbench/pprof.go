package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// A minimal decoder for the pprof profile.proto format, enough to sum CPU
// self time per Go package: the standard library writes profiles but has
// no public reader, and the benchmark takes no dependencies.

// pbField is one decoded protobuf field: varint value or length-delimited
// bytes.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts decodes a repeated integer field, packed or not.
func pbInts(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profileByPackage sums a CPU profile's self time (the leaf frame of each
// sample, after inlining) by package. Packages outside pkgs other than
// "runtime" fold into "other"; the result has an entry for every name in
// pkgs, so the rows always sum to the whole profile.
func profileByPackage(data []byte, pkgs []string) (map[string]time.Duration, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indices
		samples    [][2][]uint64
		locLeaf    = map[uint64]uint64{} // location id -> leaf function id
		funcName   = map[uint64]uint64{} // function id -> name string index
	)
	err := pbFields(data, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]uint64
			err := pbFields(f.bytes, func(g pbField) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = g.v
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s [2][]uint64
			err := pbFields(f.bytes, func(g pbField) error {
				var err error
				if g.num == 1 || g.num == 2 {
					s[g.num-1], err = pbInts(g, s[g.num-1])
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			first := true
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line; the first entry is the innermost inlined frame
					if !first {
						return nil
					}
					first = false
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							leaf = h.v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, vt := range sampleType {
		if str(vt[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("pprof: no nanoseconds sample value")
	}
	known := map[string]bool{}
	out := map[string]time.Duration{}
	for _, p := range pkgs {
		known[p] = true
		out[p] = 0
	}
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) <= vi {
			continue
		}
		pkg := metricPackage(funcPackage(str(funcName[locLeaf[s[0][0]]])), known)
		out[pkg] += time.Duration(s[1][vi])
	}
	return out, nil
}

// funcPackage returns the import path of a Go symbol name:
// "a4sim/internal/cache.(*Array).Probe" -> "a4sim/internal/cache",
// "net/http.(*conn).serve" -> "net/http". Type arguments are ignored.
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// metricPackage maps an import path onto a profiled package name: the
// repository's internal packages by their short name, standard-library
// packages by path (crypto/... and the runtime's syscall package folded
// into crypto and syscall), anything else to "other".
func metricPackage(path string, known map[string]bool) string {
	name := strings.TrimPrefix(path, "a4sim/internal/")
	switch {
	case path == "internal/runtime/syscall":
		name = "syscall"
	case strings.HasPrefix(path, "crypto/"):
		name = "crypto"
	}
	if known[name] && name != "other" {
		return name
	}
	return "other"
}
