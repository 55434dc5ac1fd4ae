package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"owl/internal/core"
)

// site names one leak the ground truth says must be flagged: a leak kind
// at a basic block carrying a source label. An empty label matches any
// block.
type site struct {
	kind  core.LeakKind
	label string
}

// expect is the planted ground truth of one program: the sites its
// kernels leak by construction, the leak kinds it cannot have, and the
// annotation every data-flow leak must carry. Verdicts are checked
// against it, never against reports an earlier detector produced.
type expect struct {
	flagged   []site
	none      []core.LeakKind
	annotated string // substring of every screened data-flow leak's annotation
}

// check returns nil when the report meets the ground truth, and otherwise
// an error naming every miss.
func (e expect) check(r *core.Report) error {
	if r == nil {
		return fmt.Errorf("no report")
	}
	screened := r.Screened()
	var misses []string
	for _, want := range e.flagged {
		found := false
		for _, l := range screened {
			if l.Kind == want.kind && (want.label == "" || l.BlockLabel == want.label) {
				found = true
				break
			}
		}
		if !found {
			misses = append(misses, fmt.Sprintf("planted %s leak at %q not flagged", want.kind, want.label))
		}
	}
	for _, kind := range e.none {
		if n := countKind(screened, kind); n > 0 {
			misses = append(misses, fmt.Sprintf("%d %s leak(s) where none exist", n, kind))
		}
	}
	if e.annotated != "" {
		for _, l := range screened {
			if l.Kind == core.DataFlowLeak && !strings.Contains(l.Where, e.annotated) {
				misses = append(misses, fmt.Sprintf("data-flow leak %s is not on a %q instruction", l.Location(), e.annotated))
			}
		}
	}
	if len(misses) > 0 {
		return fmt.Errorf("%s: %s", r.Program, strings.Join(misses, "; "))
	}
	return nil
}

func countKind(leaks []core.Leak, kind core.LeakKind) int {
	n := 0
	for _, l := range leaks {
		if l.Kind == kind {
			n++
		}
	}
	return n
}

// Ground truth of the programs the workloads run.
var (
	// AES T-table encryption: every round's table lookups and the final
	// s-box lookups are indexed by key-dependent state; the kernel has no
	// secret-dependent launch.
	expectAES = expect{
		flagged:   []site{{core.DataFlowLeak, "aes.round"}, {core.DataFlowLeak, "aes.final"}},
		none:      []core.LeakKind{core.KernelLeak},
		annotated: "secret-indexed",
	}
	// RSA square-and-multiply: the multiply branch follows the exponent
	// bits; no memory address depends on them.
	expectRSA = expect{
		flagged: []site{{core.ControlFlowLeak, "rsa.multiply"}},
		none:    []core.LeakKind{core.KernelLeak, core.DataFlowLeak},
	}
	// Tokenizer: the character-class lookup is indexed by the text and
	// the token-boundary branch follows it.
	expectTokenize = expect{
		flagged: []site{{core.DataFlowLeak, ""}, {core.ControlFlowLeak, ""}},
		none:    []core.LeakKind{core.KernelLeak},
	}
	// NLL loss: the log-probability load is indexed by the secret label.
	expectNLLLoss = expect{
		flagged:   []site{{core.DataFlowLeak, "nll.row"}},
		none:      []core.LeakKind{core.KernelLeak, core.ControlFlowLeak},
		annotated: "secret-indexed",
	}
	// Secret-strided shared-memory gather: bank conflicts follow the
	// secret, so the cost channel must flag it.
	expectShmemLeaky = expect{
		flagged: []site{{core.CostLeak, ""}},
		none:    []core.LeakKind{core.KernelLeak, core.ControlFlowLeak},
	}

	// Constant-time twins. Scatter-gather AES reads every table entry
	// for every lookup, so no address or branch depends on the key (its
	// Hamming-weight power proxy still does, so cost sites are allowed).
	expectAESScatterGather = expect{
		none: []core.LeakKind{core.KernelLeak, core.ControlFlowLeak, core.DataFlowLeak},
	}
	// The Montgomery ladder executes the same operations for every bit.
	expectRSALadder = expect{
		none: []core.LeakKind{core.KernelLeak, core.ControlFlowLeak, core.DataFlowLeak, core.CostLeak},
	}
	// The padded gather has one lane per bank and a constant encoding, so
	// its cost channel is clean (its addresses still follow the secret).
	expectShmemPadded = expect{
		none: []core.LeakKind{core.CostLeak},
	}
)

// siteHash fingerprints a report's screened-site set: FNV-1a over the
// sorted kind/location strings, truncated to 48 bits so it prints exactly
// as a JSON number.
func siteHash(r *core.Report) uint64 {
	screened := r.Screened()
	keys := make([]string, len(screened))
	for i, l := range screened {
		keys[i] = l.Kind.String() + "|" + l.Location()
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64() & (1<<48 - 1)
}
