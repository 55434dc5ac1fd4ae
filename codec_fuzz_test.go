package owl_test

// Corrupt-input robustness for the exported trace codecs. These byte
// streams are the cluster wire format and the owltrace archive format, so
// a truncated upload, a version-skewed peer, or plain garbage must come
// back as an error — never a panic, and never a trace that panics later
// in Hash or Encode.

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"owl"
	"owl/internal/adcfg"
)

// recordedTrace records one real trace through the public API.
func recordedTrace(t *testing.T) *owl.ProgramTrace {
	t.Helper()
	opts := owl.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 2, 2
	det, err := owl.NewDetector(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := det.RecordOnce(newLeakyTable(t), []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDecodeTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := owl.EncodeTrace(&buf, recordedTrace(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := owl.DecodeTrace(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(full))
		}
	}
}

func TestDecodeTraceGarbage(t *testing.T) {
	for _, in := range []string{"", "junk", "\x00\x01\x02\x03", strings.Repeat("\xff", 64)} {
		if _, err := owl.DecodeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("garbage %q accepted", in)
		}
	}
}

func TestDecodeTraceJSONGarbage(t *testing.T) {
	for _, in := range []string{"", "{", "[]", `"str"`, "junk", `{"Program":1}`} {
		if _, err := owl.DecodeTraceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("garbage %q accepted", in)
		}
	}
}

// TestDecodeTraceJSONStructurallyInvalid feeds decodable JSON whose shape
// would panic Hash/Encode: nil invocations and invocations without a
// graph must be rejected by validation, not crash later.
func TestDecodeTraceJSONStructurallyInvalid(t *testing.T) {
	cases := map[string]string{
		"nil invocation": `{"Program":"p","Invocations":[null]}`,
		"nil graph":      `{"Program":"p","Invocations":[{"Kernel":"k"}]}`,
	}
	for name, in := range cases {
		if _, err := owl.DecodeTraceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// histCorruptions break the sorted-run invariant of an address histogram
// in each way trace validation must catch.
var histCorruptions = map[string]func(*adcfg.MemHist){
	"unsorted": func(h *adcfg.MemHist) {
		h.Addrs, h.Counts = []uint64{h.Addrs[0] + 1, h.Addrs[0]}, []int64{1, 1}
	},
	"duplicate":  func(h *adcfg.MemHist) { h.Addrs, h.Counts = []uint64{h.Addrs[0], h.Addrs[0]}, []int64{1, 1} },
	"zero count": func(h *adcfg.MemHist) { h.Counts[0] = 0 },
	"lengths":    func(h *adcfg.MemHist) { h.Counts = append(h.Counts, 1) },
}

// firstHist returns a non-empty address histogram of t — the first in
// invocation, block, visit and instruction order — or nil.
func firstHist(t *owl.ProgramTrace) *adcfg.MemHist {
	for _, inv := range t.Invocations {
		blocks := make([]int, 0, len(inv.Graph.Nodes))
		for b := range inv.Graph.Nodes {
			blocks = append(blocks, b)
		}
		slices.Sort(blocks)
		for _, b := range blocks {
			for _, v := range inv.Graph.Nodes[b].Visits {
				for _, h := range v.Mems {
					if h != nil && h.Len() > 0 {
						return h
					}
				}
			}
		}
	}
	return nil
}

// cloneTrace deep-copies t through the gob codec.
func cloneTrace(tb testing.TB, t *owl.ProgramTrace) *owl.ProgramTrace {
	tb.Helper()
	var buf bytes.Buffer
	if err := owl.EncodeTrace(&buf, t); err != nil {
		tb.Fatal(err)
	}
	c, err := owl.DecodeTrace(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// FuzzDecodeTrace: whatever bytes arrive, DecodeTrace either errors or
// returns a trace that survives Hash and a re-encode round-trip.
func FuzzDecodeTrace(f *testing.F) {
	opts := owl.DefaultOptions()
	opts.FixedRuns, opts.RandomRuns = 2, 2
	det, err := owl.NewDetector(opts)
	if err != nil {
		f.Fatal(err)
	}
	b := owl.NewKernelBuilder("lookup", 2)
	table, secret := b.Param(0), b.Param(1)
	b.Load(owl.Global, b.Add(table, b.And(secret, b.ConstR(63))), 0)
	b.Ret()
	k, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	tr, err := det.RecordOnce(&leakyTable{kernel: k}, []byte{5})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := owl.EncodeTrace(&valid, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte("junk"))
	f.Add([]byte{})
	// Histograms off the canonical sorted-run form must be rejected.
	for _, corrupt := range histCorruptions {
		bad := cloneTrace(f, tr)
		h := firstHist(bad)
		if h == nil {
			f.Fatal("recorded trace has no address histogram")
		}
		corrupt(h)
		var buf bytes.Buffer
		if err := owl.EncodeTrace(&buf, bad); err != nil {
			f.Fatal(err)
		}
		if _, err := owl.DecodeTrace(bytes.NewReader(buf.Bytes())); err == nil {
			f.Fatal("non-canonical histogram seed decoded")
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := owl.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := got.Hash() // must not panic
		var re bytes.Buffer
		if err := owl.EncodeTrace(&re, got); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		back, err := owl.DecodeTrace(&re)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if back.Hash() != h {
			t.Fatal("gob round-trip changed the canonical hash")
		}
	})
}

// FuzzDecodeTraceJSON mirrors FuzzDecodeTrace for the interchange format.
func FuzzDecodeTraceJSON(f *testing.F) {
	f.Add([]byte(`{"Program":"p","Invocations":[],"Allocs":null}`))
	f.Add([]byte(`{"Program":"p","Invocations":[null]}`))
	f.Add([]byte(`{"Program":"p","Invocations":[{"Kernel":"k"}]}`))
	f.Add([]byte("junk"))
	for _, addrs := range []string{
		`"addrs":[1,5],"counts":[2,1]`, // canonical
		`"addrs":{"5":1,"1":2}`,        // legacy object form
		`"addrs":[5,1],"counts":[1,2]`, // unsorted
		`"addrs":[5,5],"counts":[1,2]`, // duplicate
		`"addrs":[1,5],"counts":[2,0]`, // zero count
		`"addrs":[1,5],"counts":[2]`,   // mismatched lengths
	} {
		f.Add([]byte(`{"Program":"p","Invocations":[{"Kernel":"k","Graph":{"kernel":"k","warps":1,` +
			`"nodes":[{"block":0,"visits":[{"count":1,"mems":[{"space":1,` + addrs + `}]}]}],"edges":[]}}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := owl.DecodeTraceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = got.Hash() // must not panic on anything the decoder admits
		var re bytes.Buffer
		if err := owl.EncodeTraceJSON(&re, got); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
	})
}
