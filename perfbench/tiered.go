package main

// Workload "tiered": tiered execution used as a runtime. Engine.EnableTiering
// with the default thresholds and background promotions; Rewriter.Tiered
// handles for two kinds of code:
//
//   - the element and line kernels of the three structures (line kernels
//     both inlined and call-based), specialized to seeded stencils;
//   - a seeded draw of integer programs from crosstest.GenerateWithMask
//     with FeatNestedLoop, the integer-loop code the trace tier compiles.
//
// One caller goroutine runs a seeded call sequence, which leaves the second
// core to background promotions.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	dbrewllvm "repro"
	"repro/internal/abi"
	"repro/internal/crosstest"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/stencil"
	"repro/internal/tier"
)

const (
	tieredPrograms = 16 // generated integer programs
	tieredArgPairs = 4  // argument pairs per program
	// Calls per handle and second of run length. Each handle is promoted
	// to tier 2 at its 100th call, so these keep the calls before that
	// under 5 % of each class: its p90 then lies within the tier-2 calls.
	tieredElemCallsPerSecond = 400
	tieredLineCallsPerSecond = 200
	tieredProgCallsPerSecond = 400
	// tieredProbeEvery spaces the traced run's allocation probes (each
	// maps one more region).
	tieredProbeEvery = 500
)

// tieredTaps are the tap counts of the seeded stencils the flat and sorted
// kernels are specialized to.
var tieredTaps = []int{5, 9}

const (
	classElem = "stencil element"
	classLine = "stencil line"
	classProg = "generated program"
)

type tieredHandle struct {
	name  string
	class string
	f     *dbrewllvm.TieredFunc

	st    stencil.Stencil // stencil kernels
	sAddr uint64

	prog    *crosstest.Program // generated programs
	scratch uint64
	args    [][2]uint64
	first   []*progResult // per argument pair: the first call's result
}

type progResult struct {
	rax     uint64
	scratch []byte
}

type tieredCall struct {
	h   int
	arg int // element index, row, or argument pair
}

type tieredEnv struct {
	eng     *dbrewllvm.Engine
	m1, m2  *stencil.Matrix
	ref     []float64
	handles []*tieredHandle
	calls   []tieredCall
}

func setupTiered(seed int64, seconds int) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	eng := dbrewllvm.NewEngine()
	c, m1, m2, err := buildImage(eng.Mem, rng)
	if err != nil {
		return nil, err
	}
	e := &tieredEnv{eng: eng, m1: m1, m2: m2, ref: m1.Slice()}
	eng.EnableTiering(dbrewllvm.TierConfig{})

	register := func(name, class string, entry uint64, sig abi.Signature, st stencil.Stencil, sAddr uint64, size int) error {
		rw := dbrewllvm.NewRewriter(eng, entry, sig)
		rw.SetParPtr(0, sAddr, size)
		f, err := rw.Tiered(name)
		if err != nil {
			return err
		}
		e.handles = append(e.handles, &tieredHandle{name: name, class: class, f: f, st: st, sAddr: sAddr})
		return nil
	}
	// The direct kernels hard-code the 4-point stencil; the stencil
	// argument they are specialized to is unused, as in the paper.
	four := stencil.FourPoint()
	fourAddr, fourSize, err := four.SerializeFlat(eng.Mem)
	if err != nil {
		return nil, err
	}
	for _, k := range []struct {
		name, class string
		entry       uint64
		sig         abi.Signature
	}{
		{"direct_elem", classElem, c.DirectElem, kernels.ElemSig},
		{"direct_line", classLine, c.DirectLine, kernels.LineSig},
		{"direct_line_call", classLine, c.DirectLineCall, kernels.LineSig},
	} {
		if err := register(k.name, k.class, k.entry, k.sig, four, fourAddr, fourSize); err != nil {
			return nil, err
		}
	}
	for i, taps := range tieredTaps {
		st := randomStencil(rng, taps)
		flatAddr, flatSize, err := st.SerializeFlat(eng.Mem)
		if err != nil {
			return nil, err
		}
		sortedAddr, _, sortedSize, err := st.SerializeSorted(eng.Mem)
		if err != nil {
			return nil, err
		}
		for _, k := range []struct {
			name, class string
			entry       uint64
			sig         abi.Signature
			addr        uint64
			size        int
		}{
			{"flat_elem", classElem, c.FlatElem, kernels.ElemSig, flatAddr, flatSize},
			{"sorted_elem", classElem, c.SortedElem, kernels.ElemSig, sortedAddr, sortedSize},
			{"flat_line", classLine, c.FlatLine, kernels.LineSig, flatAddr, flatSize},
			{"sorted_line", classLine, c.SortedLine, kernels.LineSig, sortedAddr, sortedSize},
			{"flat_line_call", classLine, c.FlatLineCall, kernels.LineSig, flatAddr, flatSize},
			{"sorted_line_call", classLine, c.SortedLineCall, kernels.LineSig, sortedAddr, sortedSize},
		} {
			if err := register(fmt.Sprintf("%s.%d", k.name, i), k.class, k.entry, k.sig, st, k.addr, k.size); err != nil {
				return nil, err
			}
		}
	}
	// The programs are the first integer ones the generator makes from
	// seeds 1, 2, ...: generated programs differ in cost by orders of
	// magnitude, so a set drawn per run would make the work per run depend
	// on the seed. The run's seed draws their arguments and the call
	// order. (The floating-point programs return through XMM0 and do not
	// reach the trace tier's integer loops.)
	for s, progs := int64(1), 0; progs < tieredPrograms; s++ {
		p, err := crosstest.GenerateWithMask(s, crosstest.FeatNestedLoop)
		if err != nil {
			return nil, err
		}
		if p.UsesFP {
			continue
		}
		name := fmt.Sprintf("prog.%d", s)
		entry := eng.PlaceCode(p.Code, name)
		rw := dbrewllvm.NewRewriter(eng, entry, p.Sig())
		f, err := rw.Tiered(name)
		if err != nil {
			return nil, err
		}
		h := &tieredHandle{name: name, class: classProg, f: f, prog: p,
			scratch: eng.Alloc(crosstest.ScratchSize, name+".scratch"),
			first:   make([]*progResult, tieredArgPairs)}
		for j := 0; j < tieredArgPairs; j++ {
			h.args = append(h.args, [2]uint64{uint64(rng.Int63n(1 << 20)), uint64(rng.Int63n(1 << 20))})
		}
		e.handles = append(e.handles, h)
		progs++
	}

	// Every handle gets a fixed number of calls per second of run length;
	// the whole sequence is shuffled, so handles cross their promotion
	// thresholds at scattered times instead of in lockstep.
	for h, hd := range e.handles {
		switch hd.class {
		case classElem:
			for j := 0; j < seconds*tieredElemCallsPerSecond; j++ {
				row, col := 1+rng.Intn(paperSZ-2), 1+rng.Intn(paperSZ-2)
				e.calls = append(e.calls, tieredCall{h, row*paperSZ + col})
			}
		case classLine:
			for j := 0; j < seconds*tieredLineCallsPerSecond; j++ {
				e.calls = append(e.calls, tieredCall{h, 1 + rng.Intn(paperSZ-2)})
			}
		case classProg:
			for j := 0; j < seconds*tieredProgCallsPerSecond; j++ {
				e.calls = append(e.calls, tieredCall{h, rng.Intn(tieredArgPairs)})
			}
		}
	}
	rng.Shuffle(len(e.calls), func(a, b int) { e.calls[a], e.calls[b] = e.calls[b], e.calls[a] })
	return e, nil
}

func (e *tieredEnv) close() { e.eng.DrainTiering() }

func (e *tieredEnv) run(r *runner) {
	ts := emu.ReadTraceStats()
	if r.tr != nil {
		e.eng.EnableTracing()
	}
	lastTrace := e.eng.LastTrace()
	m1, m2 := e.m1.Region.Start, e.m2.Region.Start
	get := e.m2Get
	for i, c := range e.calls {
		h := e.handles[c.h]
		var args []uint64
		var rax uint64
		var err error
		switch h.class {
		case classElem:
			poisonElements(e.m2, paperSZ, c.arg, 1)
			args = []uint64{h.sAddr, m1, m2, uint64(c.arg)}
		case classLine:
			poisonElements(e.m2, paperSZ, c.arg*paperSZ+1, paperSZ-2)
			args = []uint64{h.sAddr, m1, m2, uint64(c.arg*paperSZ + 1), paperSZ - 2}
		case classProg:
			if err = crosstest.ResetScratch(e.eng.Mem, h.scratch); err != nil {
				r.op(h.class, 0, err)
				continue
			}
			a := h.args[c.arg]
			args = []uint64{a[0], a[1], h.scratch}
		}
		if r.tr == nil {
			start := time.Now()
			rax, err = h.f.Call(args, nil)
			r.op(h.class, time.Since(start), err)
		} else {
			level, retired := h.f.Level(), emu.TotalRetired()
			id := r.tr.begin("TieredFunc.Call", i, -1)
			start := time.Now()
			rax, err = h.f.Call(args, nil)
			d := time.Since(start)
			r.tr.end(id, "insts", emu.TotalRetired()-retired, "tier", int64(level))
			r.op(h.class, d, err)
			if i%tieredProbeEvery == 0 {
				allocProbe(r, i, -1, e.eng.Mem)
			}
			if t := e.eng.LastTrace(); t != lastTrace {
				lastTrace = t
				importPromotion(r.tr, t.Name(), t.JSON(), i)
			}
		}
		if err != nil {
			continue
		}
		switch h.class {
		case classElem:
			r.check(checkElements(h.name, h.st, e.ref, paperSZ, c.arg, 1, get))
		case classLine:
			r.check(checkElements(h.name, h.st, e.ref, paperSZ, c.arg*paperSZ+1, paperSZ-2, get))
		case classProg:
			got, err := e.eng.Mem.Read(h.scratch, crosstest.ScratchSize)
			if err != nil {
				r.check(err)
				continue
			}
			if f := h.first[c.arg]; f == nil {
				h.first[c.arg] = &progResult{rax: rax, scratch: bytes.Clone(got)}
			} else {
				r.check(checkProgram(h.name, rax, f.rax, got, f.scratch))
			}
		}
	}
	e.eng.DrainTiering()
	traceCounters(r, ts)
}

func (e *tieredEnv) m2Get(idx int) float64 { return e.m2.Get(idx/paperSZ, idx%paperSZ) }

// importPromotion records one tier promotion the engine traced: a
// tier.promote span with the pipeline stages under it.
func importPromotion(tr *tracer, name string, raw []byte, op int) {
	pt, ok := parseTrace(tr, raw)
	if !ok {
		return
	}
	level := 0
	switch name {
	case "tier1.promote":
		level = 1
	case "tier2.promote":
		level = 2
	}
	id := tr.add(span{Name: "tier.promote", Start: pt.start, End: pt.end, Parent: -1, Op: op,
		Attrs: map[string]float64{"tier": float64(level), "ok": toFloat(!pt.failed)}})
	tr.addTrace(pt, id, op)
}

// finish compares the first result of every program call with the
// per-instruction interpreter's, then measures the code every handle ended
// with: modelled cycles per stencil element or per program call.
func (e *tieredEnv) finish(r *runner) {
	st, _ := e.eng.TierStats()
	errs := 0
	for _, f := range st.Funcs {
		errs += int(f.CompileErrors)
	}
	r.counters["tier.compile_errors"] = float64(errs)
	memCounters(r, e.eng.Mem)

	m1, m2 := e.m1.Region.Start, e.m2.Region.Start
	levels := make(map[tier.Level]int)
	for _, h := range e.handles {
		fs := h.f.Stats()
		levels[fs.Level]++
		entry := h.f.Entry()
		m := emu.NewMachine(e.eng.Mem)
		call := func(args ...uint64) func() error {
			return func() error {
				_, err := m.Call(entry, emu.CallArgs{Ints: args}, emuBudget)
				return err
			}
		}
		var units float64
		var err error
		switch h.class {
		case classElem:
			// Consecutive handles share a stencil, so the output is
			// poisoned first: the previous handle's result would pass.
			idx := paperSZ + 1
			err = runAndCheckElements(h.name+" (installed)", h.st, e.ref, e.m2, paperSZ, idx, 1,
				call(h.sAddr, m1, m2, uint64(idx)))
			units = 1
		case classLine:
			err = runAndCheckElements(h.name+" (installed)", h.st, e.ref, e.m2, paperSZ, paperSZ+1, paperSZ-2,
				call(h.sAddr, m1, m2, paperSZ+1, paperSZ-2))
			units = paperSZ - 2
		case classProg:
			for j, a := range h.args {
				want, err := interpret(h.prog, a)
				if err != nil {
					r.check(fmt.Errorf("%s: interpreter: %w", h.name, err))
					continue
				}
				if f := h.first[j]; f != nil {
					r.check(checkProgram(fmt.Sprintf("%s%v", h.name, a), f.rax, want.rax, f.scratch, want.scratch))
				}
			}
			if err = crosstest.ResetScratch(e.eng.Mem, h.scratch); err == nil {
				a := h.args[0]
				err = call(a[0], a[1], h.scratch)()
			}
			units = 1
		}
		if err != nil {
			r.check(fmt.Errorf("%s: measuring the installed code: %w", h.name, err))
			continue
		}
		r.code(m.Cycles/units, fs.CodeSize)
		if r.tr != nil && fs.CodeSize > 0 {
			r.check(decodeSpan(r, -1, -1, e.eng.Mem, entry, fs.CodeSize))
		}
	}
	stacks := 0
	for _, rg := range e.eng.Mem.Regions() {
		if rg.Name == "tier.stack" {
			stacks++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: tiered: %d handles, final tiers %v, %d compile errors, %d tier.stack regions after %.0f GC cycles\n%s",
		len(e.handles), levels, errs, stacks, r.counters["go.gc_cycles"], st.String())
}

// interpret runs a generated program on the per-instruction interpreter in
// a fresh address space: the reference for every tiered call.
func interpret(p *crosstest.Program, a [2]uint64) (*progResult, error) {
	mem, entry, scratch, err := p.Place()
	if err != nil {
		return nil, err
	}
	m := emu.NewMachine(mem)
	m.Interp = true
	rax, err := m.Call(entry, emu.CallArgs{Ints: []uint64{a[0], a[1], scratch}}, emuBudget)
	if err != nil {
		return nil, err
	}
	buf, err := mem.Read(scratch, crosstest.ScratchSize)
	if err != nil {
		return nil, err
	}
	return &progResult{rax: rax, scratch: bytes.Clone(buf)}, nil
}
