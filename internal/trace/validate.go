package trace

import (
	"fmt"

	"owl/internal/adcfg"
)

// Validate checks the structural invariants the rest of the pipeline
// assumes: no nil invocations, graphs, nodes, visits, or edges, address
// histograms in canonical sorted-run form, and cost sites in canonical
// order. Encode
// and Hash index straight into these structures, so a trace decoded from
// an untrusted byte stream — the cluster wire format, a file on disk —
// must pass here before any later use can panic on it. Decoders call
// Validate automatically; a trace built by the tracer always passes.
func (t *ProgramTrace) Validate() error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	for i, inv := range t.Invocations {
		if inv == nil {
			return fmt.Errorf("trace: invocation %d is nil", i)
		}
		if inv.Graph == nil {
			return fmt.Errorf("trace: invocation %d (%s) has no graph", i, inv.Kernel)
		}
		for id, n := range inv.Graph.Nodes {
			if n == nil {
				return fmt.Errorf("trace: invocation %d: node %d is nil", i, id)
			}
			for j, v := range n.Visits {
				if v == nil {
					return fmt.Errorf("trace: invocation %d: node %d visit %d is nil", i, id, j)
				}
				for m, h := range v.Mems {
					if err := checkHist(h); err != "" {
						return &HistError{Invocation: i, Block: id, Visit: j, Mem: m, Reason: err}
					}
				}
			}
		}
		for key, e := range inv.Graph.Edges {
			if e == nil {
				return fmt.Errorf("trace: invocation %d: edge %d->%d is nil", i, key.Src, key.Dst)
			}
		}
		for j, c := range inv.Cost {
			if c.Metric < CostBank || c.Metric > CostPower {
				return fmt.Errorf("trace: invocation %d: cost site %d has unknown metric %d", i, j, c.Metric)
			}
			if c.Block < 0 || c.Instr < 0 || c.Events <= 0 || c.Total < 0 {
				return fmt.Errorf("trace: invocation %d: cost site %d is malformed (%+v)", i, j, c)
			}
			if j > 0 && !costLess(inv.Cost[j-1], c) {
				return fmt.Errorf("trace: invocation %d: cost sites not in canonical order at %d", i, j)
			}
		}
	}
	return nil
}

// HistError reports an address histogram that is not in canonical form:
// strictly ascending addresses, each with a positive count.
type HistError struct {
	Invocation, Block, Visit, Mem int
	Reason                        string
}

func (e *HistError) Error() string {
	return fmt.Sprintf("trace: invocation %d: block %d visit %d mem %d: histogram %s",
		e.Invocation, e.Block, e.Visit, e.Mem, e.Reason)
}

// checkHist returns why h breaks the sorted-run invariant, or "".
func checkHist(h *adcfg.MemHist) string {
	if h == nil {
		return ""
	}
	if len(h.Addrs) != len(h.Counts) {
		return fmt.Sprintf("has %d addresses but %d counts", len(h.Addrs), len(h.Counts))
	}
	for k, c := range h.Counts {
		if c <= 0 {
			return fmt.Sprintf("count %d at %#x is not positive", c, h.Addrs[k])
		}
		if k > 0 && h.Addrs[k] <= h.Addrs[k-1] {
			return fmt.Sprintf("addresses not strictly ascending at %d", k)
		}
	}
	return ""
}
