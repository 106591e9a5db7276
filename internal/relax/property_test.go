package relax

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"strandweaver/internal/pmo"
)

// randomProgram builds a small random program (1-2 threads, a few ops
// each, 3 locations) in the same shape the persistcheck differential
// test uses: store values are globally unique so persist sets identify
// stores unambiguously.
func randomProgram(r *rand.Rand) pmo.Program {
	threads := 1 + r.Intn(2)
	p := make(pmo.Program, threads)
	val := 1
	total := 0
	for t := 0; t < threads; t++ {
		n := 2 + r.Intn(4)
		if total+n > 9 { // keep the oracle enumeration cheap
			n = 9 - total
		}
		total += n
		for i := 0; i < n; i++ {
			loc := r.Intn(3)
			switch r.Intn(6) {
			case 0:
				p[t] = append(p[t], pmo.Ld(loc))
			case 1:
				p[t] = append(p[t], pmo.PB())
			case 2:
				p[t] = append(p[t], pmo.NS())
			case 3:
				p[t] = append(p[t], pmo.JS())
			default:
				p[t] = append(p[t], pmo.St(loc, uint64(val)))
				val++
			}
		}
	}
	return p
}

// heldPairs returns every ordered store pair (before, after) that the
// program's allowed persist sets currently enforce — the pool random
// requirements are drawn from, so each requirement is satisfiable by
// construction.
func heldPairs(p pmo.Program) []Requirement {
	sets := pmo.AllowedPersistSets(p)
	var refs []pmo.StoreRef
	var ids []pmo.StoreID
	for t, ops := range p {
		ord := 0
		for i, op := range ops {
			if op.Kind == pmo.KStore {
				refs = append(refs, pmo.StoreRef{Thread: t, Ord: ord})
				ids = append(ids, pmo.StoreID{Thread: t, Index: i})
				ord++
			}
		}
	}
	var out []Requirement
	for i := range refs {
		for j := range refs {
			if i == j {
				continue
			}
			holds := true
			for _, set := range sets {
				if set[ids[j]] && !set[ids[i]] {
					holds = false
					break
				}
			}
			if holds {
				out = append(out, Requirement{Before: refs[i], After: refs[j]})
			}
		}
	}
	return out
}

// ordinalSetKeys returns the program's allowed persist sets re-keyed by
// store ordinal, as sorted canonical strings ("t0.s0 t1.s2"). Ordinals
// survive barrier rewrites, so the keys of two programs with the same
// stores compare set for set. It reads the model through
// pmo.AllowedPersistSets, not the mask family the optimizer's gate
// merges.
func ordinalSetKeys(p pmo.Program) []string {
	var keys []string
	for _, set := range pmo.AllowedPersistSets(p) {
		var refs []pmo.StoreRef
		for id := range set {
			r, _ := pmo.RefOf(p, id)
			refs = append(refs, r)
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Thread != refs[j].Thread {
				return refs[i].Thread < refs[j].Thread
			}
			return refs[i].Ord < refs[j].Ord
		})
		parts := make([]string, len(refs))
		for i, r := range refs {
			parts[i] = r.String()
		}
		keys = append(keys, strings.Join(parts, " "))
	}
	sort.Strings(keys)
	return keys
}

// supersetOf reports whether sorted keys a contain every key of sorted
// keys b.
func supersetOf(a, b []string) bool {
	i := 0
	for _, k := range b {
		for i < len(a) && a[i] < k {
			i++
		}
		if i >= len(a) || a[i] != k {
			return false
		}
	}
	return true
}

// requirementHolds reports whether every allowed persist set that holds
// the store named by after also holds before.
func requirementHolds(p pmo.Program, before, after pmo.StoreRef) bool {
	bid, ok := pmo.StoreIDOf(p, before)
	if !ok {
		return false
	}
	aid, ok := pmo.StoreIDOf(p, after)
	if !ok {
		return false
	}
	for _, set := range pmo.AllowedPersistSets(p) {
		if set[aid] && !set[bid] {
			return false
		}
	}
	return true
}

// TestOptimizeSoundnessProperty is the issue's property test: over 200+
// randomized programs with requirements drawn from initially-held
// pairs, every relax-accepted program's allowed persist sets are a
// superset of the original's AND still exclude every crash state that
// violates a declared requirement.
func TestOptimizeSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(0x57a4d)) // fixed seed: deterministic corpus
	const trials = 220
	optimizedSomething := 0
	for trial := 0; trial < trials; trial++ {
		p := randomProgram(r)
		pool := heldPairs(p)
		var reqs []Requirement
		if len(pool) > 0 {
			// Pick up to 3 distinct held pairs as the declared contract.
			for _, idx := range r.Perm(len(pool))[:min(3, len(pool))] {
				reqs = append(reqs, pool[idx])
			}
		}
		res, err := Optimize(Input{Name: "prop", Program: p, Requires: reqs})
		if err != nil {
			t.Fatalf("trial %d: Optimize: %v\nprogram:\n%s", trial, err, p)
		}
		if res.Status != StatusOptimized {
			t.Fatalf("trial %d: status = %s for requirements drawn from held pairs\nprogram:\n%s", trial, res.Status, p)
		}
		if !res.Validated {
			t.Fatalf("trial %d: result not validated\nprogram:\n%s", trial, p)
		}
		if len(res.Steps) > 0 {
			optimizedSomething++
		}

		// Property 1: superset — every originally-allowed crash cut is
		// still allowed.
		origKeys := ordinalSetKeys(p)
		newKeys := ordinalSetKeys(res.Program)
		if !supersetOf(newKeys, origKeys) {
			t.Fatalf("trial %d: optimized program forbids an originally-allowed crash cut\noriginal:\n%s\noptimized:\n%s",
				trial, p, res.Program)
		}
		// Property 2: exclusion — no allowed cut of the optimized
		// program violates a declared requirement.
		for _, req := range reqs {
			if !requirementHolds(res.Program, req.Before, req.After) {
				t.Fatalf("trial %d: requirement %s violated after optimization\noriginal:\n%s\noptimized:\n%s\nlog:\n%s",
					trial, req, p, res.Program, res)
			}
		}
	}
	if optimizedSomething == 0 {
		t.Error("no trial produced any relaxation step; the corpus is not exercising the search")
	}
	t.Logf("%d/%d trials produced at least one accepted step", optimizedSomething, trials)
}

// TestValidateConvictsUnsoundRewrite is the seeded-mutant test: an
// unsound transform — barrier deletion without re-checking the
// declared requirements — must be convicted by Validate. This guards
// the guard: if Validate ever stops checking requirements against the
// exact oracle, this test fails.
func TestValidateConvictsUnsoundRewrite(t *testing.T) {
	// ST a; JS; ST b with the contract a-before-b. Deleting the
	// barrier without re-checking (the mutant "optimizer") yields a
	// program whose oracle allows {b} without {a}.
	p := pmo.Program{{pmo.St(0, 1), pmo.JS(), pmo.St(1, 2)}}
	reqs := []Requirement{{Before: pmo.StoreRef{Thread: 0, Ord: 0}, After: pmo.StoreRef{Thread: 0, Ord: 1}}}

	mutant := p.WithoutOp(0, 1) // delete the only barrier, no oracle re-check
	if err := Validate(p, reqs, mutant); err == nil {
		t.Fatal("Validate accepted a barrier deletion that breaks the declared requirement")
	}

	// Sanity: the sound optimizer on the same input keeps the
	// requirement enforced (demote JS->PB is fine; delete is not).
	res, err := Optimize(Input{Name: "mutant-ref", Program: p, Requires: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if !requirementHolds(res.Program, reqs[0].Before, reqs[0].After) {
		t.Fatalf("sound optimizer broke the requirement:\n%s", res)
	}
}

// TestValidateConvictsStoreTampering: a rewrite that changes the
// stores themselves is rejected regardless of its persist sets.
func TestValidateConvictsStoreTampering(t *testing.T) {
	p := pmo.Program{{pmo.St(0, 1), pmo.St(1, 2)}}
	tampered := pmo.Program{{pmo.St(0, 1), pmo.St(1, 99)}}
	if err := Validate(p, nil, tampered); err == nil {
		t.Fatal("Validate accepted a rewrite that changed a store value")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
