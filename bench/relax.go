package main

import (
	"fmt"
	"time"

	"strandweaver/internal/backend"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
	"strandweaver/internal/redolog"
	"strandweaver/internal/relax"
	"strandweaver/internal/undolog"
)

// The relax workload rewrites every design's undo- and redo-log recipe
// to minimal strand annotations. There is no simulation at all: the
// static analyzer takes well under a millisecond per subject, so nearly
// all the time is the crash-cut oracle proving each rewrite. Its inputs
// do not depend on the seed.
var relaxWorkload = &workload{
	name:    "relax",
	seed:    1,
	nominal: 2 * time.Second,
	// Set-up is building the recipe streams.
	setup: func(sc scale, _ int64) error {
		_, err := relaxStreams(sc.relaxPairs)
		return err
	},
	setupReps: 500,
	pass:      relaxPass,
	layers: func(sc scale, seed int64) (func(*recorder) (*passResult, error), *passResult, error) {
		return func(rec *recorder) (*passResult, error) { return relaxPipeline(sc, rec) }, nil, nil
	},
}

// relaxPin is one subject's pinned outcome at the default scale.
type relaxPin struct {
	status        relax.Status
	stalls, edges int
}

var relaxPinned = map[string]relaxPin{
	"undolog/intel-x86":        {relax.StatusOptimized, 1, 56},
	"redolog/intel-x86":        {relax.StatusOptimized, 1, 78},
	"undolog/hops":             {relax.StatusOptimized, 2, 56},
	"redolog/hops":             {relax.StatusOptimized, 1, 78},
	"undolog/no-persist-queue": {relax.StatusOptimized, 1, 56},
	"redolog/no-persist-queue": {relax.StatusOptimized, 1, 78},
	"undolog/strandweaver":     {relax.StatusOptimized, 1, 56},
	"redolog/strandweaver":     {relax.StatusOptimized, 1, 78},
	"undolog/non-atomic":       {relax.StatusUnsatisfiable, 0, 6},
	"redolog/non-atomic":       {relax.StatusUnsatisfiable, 0, 5},
	"undolog/eadr":             {relax.StatusVisibilityOrdered, 0, 0},
	"redolog/eadr":             {relax.StatusVisibilityOrdered, 0, 0},
}

// relaxSubject is one optimization input: a design's undo or redo
// recipe stream.
type relaxSubject struct {
	log    string // "undolog" or "redolog"
	design hwdesign.Design
	plan   backend.OrderingPlan
}

func (s relaxSubject) stream(pairs int) persistcheck.Stream {
	if s.log == "undolog" {
		return undolog.AnalysisStream(s.design, s.plan, pairs)
	}
	return redolog.AnalysisStream(s.design, s.plan, pairs)
}

// relaxSubjects lists the subjects in the relax command's order: every
// design in hwdesign.All, undo before redo.
func relaxSubjects() ([]relaxSubject, error) {
	var out []relaxSubject
	for _, d := range hwdesign.All {
		plan, err := backend.PlanFor(d)
		if err != nil {
			return nil, err
		}
		out = append(out, relaxSubject{"undolog", d, plan}, relaxSubject{"redolog", d, plan})
	}
	return out, nil
}

// relaxStreams builds the pass's inputs.
func relaxStreams(pairs int) ([]persistcheck.Stream, error) {
	subjects, err := relaxSubjects()
	if err != nil {
		return nil, err
	}
	streams := make([]persistcheck.Stream, len(subjects))
	for i, s := range subjects {
		streams[i] = s.stream(pairs)
	}
	return streams, nil
}

// relaxPass optimizes every subject. Ops are subjects.
func relaxPass(sc scale, _ int64) (*passResult, error) {
	streams, err := relaxStreams(sc.relaxPairs)
	if err != nil {
		return nil, err
	}
	p := &passResult{counters: map[string]float64{}}
	steps := 0
	t0 := time.Now()
	for _, s := range streams {
		t := time.Now()
		res, err := relax.OptimizeStream(s)
		p.ops = append(p.ops, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("relax %s: %w", s.Name, err)
		}
		checkRelax(sc, res, p)
		steps += len(res.Steps)
	}
	p.wall = time.Since(t0)
	p.counters["relax.steps"] = float64(steps)
	p.summary = fmt.Sprintf("%d subjects, %d steps", len(streams), steps)
	return p, nil
}

// checkRelax checks one result: its status matches the design (strand
// designs optimize, non-atomic is unsatisfiable, eADR is
// visibility-ordered), an optimized result is validated, and at the
// default scale the final footprint is the pinned one.
func checkRelax(sc scale, res *relax.Result, p *passResult) {
	want := relax.StatusOptimized
	switch res.Name {
	case "undolog/" + hwdesign.NonAtomic.String(), "redolog/" + hwdesign.NonAtomic.String():
		want = relax.StatusUnsatisfiable
	case "undolog/" + hwdesign.EADR.String(), "redolog/" + hwdesign.EADR.String():
		want = relax.StatusVisibilityOrdered
	}
	p.check(res.Status == want, "relax %s: status %s, want %s", res.Name, res.Status, want)
	if res.Status == relax.StatusOptimized {
		p.check(res.Validated, "relax %s: optimized result not validated", res.Name)
	}
	if sc.pin {
		pin, ok := relaxPinned[res.Name]
		got := relaxPin{res.Status, res.Final.StallBarriers, res.Final.MustEdges}
		p.check(ok && got == pin, "relax %s: final %+v, pinned %+v", res.Name, got, pin)
	}
}

// relaxPipeline is the traced relax run: per subject, the recipe
// stream, the analyzer's report, the optimizer, and (for optimized
// results) the oracle's allowed sets of the final program and the
// whole-run validation, each called from outside.
func relaxPipeline(sc scale, rec *recorder) (*passResult, error) {
	subjects, err := relaxSubjects()
	if err != nil {
		return nil, err
	}
	p := &passResult{counters: map[string]float64{}}
	t0 := time.Now()
	for _, s := range subjects {
		root := rec.start("bench.subject", 0, 0)
		var stream persistcheck.Stream
		rec.call(s.log+".AnalysisStream", root, 0, func() { stream = s.stream(sc.relaxPairs) })
		rec.call("persistcheck.AnalyzeStream", root, 0, func() { _, err = persistcheck.AnalyzeStream(stream) })
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", stream.Name, err)
		}
		var res *relax.Result
		rec.call("relax.OptimizeStream", root, 0, func() { res, err = relax.OptimizeStream(stream) })
		if err != nil {
			return nil, fmt.Errorf("relax %s: %w", stream.Name, err)
		}
		checkRelax(sc, res, p)
		p.counters["relax.steps"] += float64(len(res.Steps))
		if res.Status == relax.StatusOptimized {
			var prog pmo.Program
			var areqs []persistcheck.AbstractRequirement
			rec.call("persistcheck.AbstractStream", root, 0, func() { prog, areqs, err = persistcheck.AbstractStream(stream) })
			if err != nil {
				return nil, fmt.Errorf("lower %s: %w", stream.Name, err)
			}
			reqs := make([]relax.Requirement, len(areqs))
			for i, r := range areqs {
				reqs[i] = relax.Requirement{Before: r.Before, After: r.After}
			}
			rec.call("pmo.AllowedPersistSets", root, 0, func() { _ = pmo.AllowedPersistSets(res.Program) })
			var verr error
			rec.call("relax.Validate", root, 0, func() { verr = relax.Validate(prog, reqs, res.Program) })
			p.check(verr == nil, "relax %s: revalidation: %v", stream.Name, verr)
		}
		rec.end(root)
	}
	p.wall = time.Since(t0)
	return p, nil
}
