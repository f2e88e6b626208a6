package main

// Workload "paper": the paper's own evaluation. One operation is one cold
// transformation of one of Fig. 10's twelve configurations (line kernel ×
// Direct/Struct/SortedStruct × LLVM, LLVM-fix, DBrew, DBrew+LLVM), with no
// cache, after which the generated code runs over one seeded interior row
// of the 649×649 matrix on the emulator. After the timed phase all 30 bars
// of Fig. 9a/9b are prepared and measured; they give code_cycles and
// code_bytes.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/x86"
)

// paperSZ is the paper's matrix side length (9×9 base grid, 80 interlines).
const paperSZ = 649

// paperRoundsPerSecond sizes a run: one round transforms each of the
// twelve configurations once. The count depends on --seconds only, so every
// run of one length does exactly the same work.
const paperRoundsPerSecond = 18

// emuBudget bounds every emulated call; a runaway kernel fails its
// operation instead of hanging the run.
const emuBudget = 50_000_000

type paperOp struct {
	s    bench.Structure
	mode bench.Mode
	row  int
}

type paperEnv struct {
	w   *bench.Workload
	ref []float64 // input matrix contents, the reference's input
	ops []paperOp
}

func setupPaper(seed int64, seconds int) (env, error) {
	w, err := bench.NewWorkload(paperSZ)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 1; r < paperSZ-1; r++ {
		for c := 1; c < paperSZ-1; c++ {
			w.M1.Set(r, c, rng.Float64())
		}
	}
	var configs []paperOp
	for _, s := range bench.AllStructures {
		for _, m := range []bench.Mode{bench.LLVM, bench.LLVMFix, bench.DBrew, bench.DBrewLLVM} {
			configs = append(configs, paperOp{s: s, mode: m})
		}
	}
	e := &paperEnv{w: w, ref: w.M1.Slice()}
	for i := 0; i < seconds*paperRoundsPerSecond; i++ {
		for _, j := range rng.Perm(len(configs)) {
			op := configs[j]
			op.row = 1 + rng.Intn(paperSZ-2)
			e.ops = append(e.ops, op)
		}
	}
	return e, nil
}

func (e *paperEnv) close() {}

func (e *paperEnv) run(r *runner) {
	ts := emu.ReadTraceStats()
	for i, op := range e.ops {
		class := op.s.String() + "/" + op.mode.String()
		e.poisonRow(op.row)
		root := r.tr.begin("paper.op", i, -1)
		start := time.Now()
		var err error
		if r.tr == nil {
			var v *bench.Variant
			if v, err = e.w.Prepare(bench.Line, op.s, op.mode, bench.Options{}); err == nil {
				err = e.runRow(r, i, root, v.Entry, v.StencilAddr, v.DropStencilArg, op.row)
			}
		} else {
			err = e.tracedOp(r, i, root, op)
		}
		d := time.Since(start)
		r.tr.end(root)
		r.op(class, d, err)
		if err == nil {
			r.check(e.checkRow(class, op.row))
		}
	}
	traceCounters(r, ts)
}

// runRow runs a line kernel over one interior row of m1 into m2.
func (e *paperEnv) runRow(r *runner, op, parent int, entry, sAddr uint64, dropStencil bool, row int) error {
	w := e.w
	n := uint64(paperSZ - 2)
	idx0 := uint64(row*paperSZ + 1)
	args := []uint64{sAddr, w.M1.Region.Start, w.M2.Region.Start, idx0, n}
	if dropStencil {
		args = args[1:]
	}
	id := r.tr.begin("emu.Machine.Call", op, parent)
	m := emu.NewMachine(w.Mem)
	_, err := m.Call(entry, emu.CallArgs{Ints: args}, emuBudget)
	r.tr.end(id, "insts", m.InstCount)
	return err
}

// poisonRow fills an output row with NaN, so an element the generated code
// fails to write cannot pass the check with a value an earlier operation
// left behind.
func (e *paperEnv) poisonRow(row int) {
	for c := 1; c < paperSZ-1; c++ {
		e.w.M2.Set(row, c, math.NaN())
	}
}

func (e *paperEnv) checkRow(what string, row int) error {
	return checkElements(what, e.w.Stencil, e.ref, paperSZ, row*paperSZ+1, paperSZ-2,
		func(idx int) float64 { return e.w.M2.Get(idx/paperSZ, idx%paperSZ) })
}

// tracedOp is Workload.Prepare's pipeline for line kernels with a span
// around each of the benchmark's calls into a layer, followed by the same
// row run.
func (e *paperEnv) tracedOp(r *runner, op, root int, p paperOp) error {
	w, tr := e.w, r.tr
	in := w.SpecInput(bench.Line, p.s, p.mode)
	header := in.StencilSize
	if p.s == bench.Sorted {
		header = w.SortedHeader
	}
	cfg := opt.O3()

	rewrite := func() (uint64, error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := tr.begin("dbrew.Rewrite", op, root)
		rw := dbrew.NewRewriter(w.Mem, in.Entry, in.Sig)
		rw.SetParPtr(0, in.StencilAddr, in.StencilSize)
		addr, err := rw.Rewrite()
		tr.end(id, "emitted", rw.Stats.Emitted)
		runtime.ReadMemStats(&ms1)
		tr.attr(id, "allocs", ms1.Mallocs-ms0.Mallocs)
		if err == nil && rw.Stats.Failed {
			err = fmt.Errorf("dbrew fell back to the original: %v", rw.Stats.Err)
		}
		if err == nil {
			err = decodeSpan(r, op, root, w.Mem, addr, rw.Stats.CodeSize)
		}
		return addr, err
	}
	liftFn := func(addr uint64, name string) (*lift.Lifter, *ir.Func, error) {
		l := lift.New(w.Mem, lift.DefaultOptions())
		c := w.Corpus
		l.Declare(c.DirectElem, "direct_elem", kernels.ElemSig)
		l.Declare(c.FlatElem, "flat_elem", kernels.ElemSig)
		l.Declare(c.SortedElem, "sorted_elem", kernels.ElemSig)
		id := tr.begin("lift.LiftFunc", op, root)
		f, err := l.LiftFunc(addr, name, in.Sig)
		if err != nil {
			tr.end(id)
			return nil, nil, err
		}
		tr.end(id, "ir_insts", f.NumInsts())
		return l, f, nil
	}
	compile := func(m *ir.Module, name string) (uint64, error) {
		id := tr.begin("jit.CompileModule", op, root)
		comp := jit.NewCompiler(w.Mem)
		addr, err := comp.CompileModule(m, name)
		tr.end(id, "code_bytes", comp.Sizes[addr])
		if err == nil {
			err = decodeSpan(r, op, root, w.Mem, addr, comp.Sizes[addr])
		}
		return addr, err
	}

	var entry uint64
	drop := false
	switch p.mode {
	case bench.LLVM, bench.DBrewLLVM:
		src := in.Entry
		if p.mode == bench.DBrewLLVM {
			var err error
			if src, err = rewrite(); err != nil {
				return err
			}
		}
		l, f, err := liftFn(src, "k")
		if err != nil {
			return err
		}
		id := tr.begin("opt.Optimize", op, root)
		st := opt.Optimize(f, cfg)
		tr.end(id, "rounds", st.Rounds, "ir_insts_after", st.InstsAfter)
		if entry, err = compile(l.Module, f.Nam); err != nil {
			return err
		}
	case bench.LLVMFix:
		l, f, err := liftFn(in.Entry, "k")
		if err != nil {
			return err
		}
		// Fix the stencil pointer through a wrapper, then alternate
		// constant-memory folding with the pipeline to a fixed point, as
		// Workload.Prepare does.
		id := tr.begin("opt.Optimize", op, root)
		g := &ir.Global{Nam: "stencil_fixed", Ty: ir.I8, Addr: in.StencilAddr, Const: true}
		l.Module.AddGlobal(g)
		wrap, err := opt.FixParam(l.Module, f, 0, g)
		if err != nil {
			tr.end(id)
			return err
		}
		ranges := []opt.ConstRange{{Start: in.StencilAddr, Size: header}}
		st := opt.Optimize(wrap, cfg)
		rounds, after := st.Rounds, st.InstsAfter
		for i := 0; i < 6; i++ {
			n, err := opt.GlobalizeConstMem(l.Module, wrap, w.Mem, ranges)
			if err != nil {
				tr.end(id)
				return err
			}
			if n == 0 {
				break
			}
			st = opt.Optimize(wrap, cfg)
			rounds += st.Rounds
			after = st.InstsAfter
		}
		tr.end(id, "rounds", rounds, "ir_insts_after", after)
		if entry, err = compile(l.Module, wrap.Nam); err != nil {
			return err
		}
		drop = true
	case bench.DBrew:
		var err error
		if entry, err = rewrite(); err != nil {
			return err
		}
	}
	allocProbe(r, op, root, w.Mem)
	return e.runRow(r, op, root, entry, in.StencilAddr, drop, p.row)
}

// decodeSpan walks size bytes of generated code at addr with x86.Decode.
func decodeSpan(r *runner, op, parent int, mem *emu.Memory, addr uint64, size int) error {
	code, err := mem.Read(addr, size)
	if err != nil {
		return err
	}
	id := r.tr.begin("x86.Decode", op, parent)
	n := 0
	for off := 0; off < len(code); n++ {
		in, err := x86.Decode(code[off:], addr+uint64(off))
		if err != nil {
			r.tr.end(id)
			return fmt.Errorf("decoding generated code at %#x: %w", addr+uint64(off), err)
		}
		off += in.Len
	}
	r.tr.end(id, "insts", n)
	return nil
}

// allocProbe times one small allocation on the workload's address space:
// the cost every compile pays per code region at the current region count.
func allocProbe(r *runner, op, parent int, mem *emu.Memory) {
	id := r.tr.begin("emu.Memory.Alloc", op, parent)
	mem.Alloc(64, 16, "perfbench.probe")
	r.tr.end(id)
}

// finish prepares and measures the 30 bars of Fig. 9a/9b: cycles per
// element of each variant over row 1, each row checked against the
// reference.
func (e *paperEnv) finish(r *runner) {
	w := e.w
	fmt.Fprintf(os.Stderr, "perfbench: Fig. 9 bars (cycles/element, code bytes)\n")
	for _, kind := range []bench.Kind{bench.Element, bench.Line} {
		for _, s := range bench.AllStructures {
			for _, mode := range bench.AllModes {
				what := fmt.Sprintf("Fig. 9 %v/%v/%v", kind, s, mode)
				v, err := w.Prepare(kind, s, mode, bench.Options{})
				if err != nil {
					r.check(fmt.Errorf("%s: %w", what, err))
					continue
				}
				e.poisonRow(1)
				m, err := w.MeasureRows(v, 1)
				if err != nil {
					r.check(fmt.Errorf("%s: %w", what, err))
					continue
				}
				r.check(e.checkRow(what, 1))
				size := v.CodeSize
				if mode == bench.Native {
					size = 0 // not generated
				}
				r.code(m.CyclesPerElem, size)
				fmt.Fprintf(os.Stderr, "perfbench:   %-8v %-13v %-11v %8.3f %6d\n", kind, s, mode, m.CyclesPerElem, v.CodeSize)
			}
		}
	}
	memCounters(r, w.Mem)
}

// traceCounters records the trace-tier counters the timed phase moved.
func traceCounters(r *runner, before emu.TraceStats) {
	t := emu.ReadTraceStats()
	r.counters["emu.trace_compiled"] = float64(t.Compiled - before.Compiled)
	r.counters["emu.trace_native_compiled"] = float64(t.NativeCompiled - before.NativeCompiled)
	r.counters["emu.trace_aborted"] = float64(t.Aborted - before.Aborted)
	r.counters["emu.trace_side_exits"] = float64(t.SideExits - before.SideExits)
	r.counters["emu.trace_links"] = float64(t.Links - before.Links)
}

// memCounters records the size of the workload's emulated address space.
func memCounters(r *runner, mem *emu.Memory) {
	regions := mem.Regions()
	bytes := 0
	for _, rg := range regions {
		bytes += len(rg.Data)
	}
	r.counters["emu.regions"] = float64(len(regions))
	r.counters["emu.region_mb"] = float64(bytes) / (1 << 20)
}
