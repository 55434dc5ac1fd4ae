package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"owl/internal/adcfg"
	"owl/internal/isa"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := mkTrace().Validate(); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	empty := &ProgramTrace{Program: "p"}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

func TestValidateRejectsNilParts(t *testing.T) {
	cases := map[string]func(*ProgramTrace){
		"nil invocation": func(tr *ProgramTrace) { tr.Invocations[0] = nil },
		"nil graph":      func(tr *ProgramTrace) { tr.Invocations[0].Graph = nil },
		"nil node": func(tr *ProgramTrace) {
			g := tr.Invocations[0].Graph
			for id := range g.Nodes {
				g.Nodes[id] = nil
				break
			}
		},
		"nil visit": func(tr *ProgramTrace) {
			g := tr.Invocations[0].Graph
			for _, n := range g.Nodes {
				if len(n.Visits) > 0 {
					n.Visits[0] = nil
					return
				}
			}
			t.Fatal("mkTrace has no visits to corrupt")
		},
		"nil edge": func(tr *ProgramTrace) {
			g := tr.Invocations[0].Graph
			for key := range g.Edges {
				g.Edges[key] = nil
				break
			}
		},
	}
	var nilTrace *ProgramTrace
	if err := nilTrace.Validate(); err == nil {
		t.Error("nil trace accepted")
	}
	for name, corrupt := range cases {
		tr := mkTrace()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDecodersRejectInvalid proves both decoders run validation: a trace
// whose graph pointer is lost in transit (gob omits nil pointer fields;
// JSON carries an explicit null) must error at decode time instead of
// panicking later in Hash or Encode.
func TestDecodersRejectInvalid(t *testing.T) {
	tr := mkTrace()
	tr.Invocations[1].Graph = nil
	var buf bytes.Buffer
	if err := tr.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGob(&buf); err == nil {
		t.Error("gob decoder accepted a trace with a nil graph")
	}

	if _, err := ReadJSON(strings.NewReader(`{"Program":"p","Invocations":[null]}`)); err == nil {
		t.Error("json decoder accepted a nil invocation")
	}
	if _, err := ReadJSON(strings.NewReader(`{"Program":"p","Invocations":[{"Kernel":"k","Graph":null}]}`)); err == nil {
		t.Error("json decoder accepted a nil graph")
	}
}

// histTrace returns mkTrace with one address histogram in the first
// invocation's entry block.
func histTrace() (*ProgramTrace, *adcfg.MemHist) {
	tr := mkTrace()
	h := &adcfg.MemHist{Space: isa.SpaceGlobal, Addrs: []uint64{1, 5}, Counts: []int64{2, 1}}
	tr.Invocations[0].Graph.Nodes[0].Visits[0].Mems = []*adcfg.MemHist{h}
	return tr, h
}

func TestValidateRejectsNonCanonicalHist(t *testing.T) {
	if tr, _ := histTrace(); tr.Validate() != nil {
		t.Fatalf("canonical histogram rejected: %v", tr.Validate())
	}
	cases := map[string]func(*adcfg.MemHist){
		"unsorted":   func(h *adcfg.MemHist) { h.Addrs = []uint64{5, 1} },
		"duplicate":  func(h *adcfg.MemHist) { h.Addrs = []uint64{5, 5} },
		"zero count": func(h *adcfg.MemHist) { h.Counts = []int64{2, 0} },
		"negative":   func(h *adcfg.MemHist) { h.Counts = []int64{-1, 1} },
		"lengths":    func(h *adcfg.MemHist) { h.Counts = h.Counts[:1] },
	}
	for name, corrupt := range cases {
		tr, h := histTrace()
		corrupt(h)
		var he *HistError
		if err := tr.Validate(); !errors.As(err, &he) {
			t.Errorf("%s: Validate = %v, want a *HistError", name, err)
		} else if he.Invocation != 0 || he.Block != 0 || he.Visit != 0 || he.Mem != 0 {
			t.Errorf("%s: error locates the wrong histogram: %+v", name, he)
		}
		var buf bytes.Buffer
		if err := tr.WriteGob(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadGob(&buf); !errors.As(err, &he) {
			t.Errorf("%s: gob decoder accepted it (err %v)", name, err)
		}
	}
}

// TestReadJSONLegacyAddrMap: trace files written before histograms became
// columnar carry "addrs" as an address → count object; they still load,
// normalized to the canonical form, with an unchanged hash.
func TestReadJSONLegacyAddrMap(t *testing.T) {
	want, _ := histTrace()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	columnar := `"addrs":[1,5],"counts":[2,1]`
	legacy := strings.Replace(string(data), columnar, `"addrs":{"5":1,"1":2}`, 1)
	if legacy == string(data) {
		t.Fatalf("columnar histogram not found in the JSON:\n%s", data)
	}
	got, err := ReadJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	h := got.Invocations[0].Graph.Nodes[0].Visits[0].Mems[0]
	if !slices.Equal(h.Addrs, []uint64{1, 5}) || !slices.Equal(h.Counts, []int64{2, 1}) {
		t.Errorf("legacy histogram decoded to %v / %v", h.Addrs, h.Counts)
	}
	if got.Hash() != want.Hash() {
		t.Error("legacy form changed the canonical hash")
	}
}
