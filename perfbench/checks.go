package main

// The output checks. Each compares what the code under test produced with
// a reference computed apart from it: stencil.Apply in Go for stencil
// code, the first response for repeated dbrewd responses, the count of
// compile responses for the daemon's compile counter, and the emulator's
// per-instruction interpreter for generated programs.

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/service"
	"repro/internal/stencil"
)

// tolerance bounds the difference between generated stencil code and the
// Go reference: fast-math reassociation (and the sorted layout's grouped
// evaluation order) moves the last bits, nothing more.
const tolerance = 1e-9

// checkElements compares elements idx0..idx0+n-1 of the output matrix, as
// read by got, against st applied to the input matrix ref (side sz).
func checkElements(what string, st stencil.Stencil, ref []float64, sz, idx0, n int, got func(idx int) float64) error {
	for idx := idx0; idx < idx0+n; idx++ {
		want := st.Apply(ref, sz, idx)
		if g := got(idx); !(math.Abs(g-want) <= tolerance) {
			return fmt.Errorf("%s: element (%d,%d) = %g, want %g", what, idx/sz, idx%sz, g, want)
		}
	}
	return nil
}

// poisonElements fills elements idx0..idx0+n-1 of the output matrix out
// (side sz) with NaN, so an element the code under test fails to write
// cannot pass checkElements on a value left there before.
func poisonElements(out *stencil.Matrix, sz, idx0, n int) {
	for idx := idx0; idx < idx0+n; idx++ {
		out.Set(idx/sz, idx%sz, math.NaN())
	}
}

// runAndCheckElements poisons elements idx0..idx0+n-1 of out, runs the
// code under test, and checks those elements against st applied to ref.
func runAndCheckElements(what string, st stencil.Stencil, ref []float64, out *stencil.Matrix, sz, idx0, n int, run func() error) error {
	poisonElements(out, sz, idx0, n)
	if err := run(); err != nil {
		return err
	}
	return checkElements(what, st, ref, sz, idx0, n, func(idx int) float64 { return out.Get(idx/sz, idx%sz) })
}

// checkSameResponse requires a repeated response for one key and strategy
// to carry exactly the code, address and statistics of the first.
func checkSameResponse(key string, first, got *service.Response) error {
	switch {
	case !bytes.Equal(first.Code, got.Code):
		return fmt.Errorf("key %s: repeated response code differs from the first (%d vs %d bytes)",
			key, len(got.Code), len(first.Code))
	case first.Addr != got.Addr:
		return fmt.Errorf("key %s: repeated response at %#x, first at %#x", key, got.Addr, first.Addr)
	case first.Stats != got.Stats:
		return fmt.Errorf("key %s: repeated response stats %+v, first %+v", key, got.Stats, first.Stats)
	}
	return nil
}

// checkCompileCount requires the daemon's compile counter to equal the
// number of responses that reported Source "compile".
func checkCompileCount(engineCompiles int64, sources map[string]int) error {
	if int64(sources["compile"]) != engineCompiles {
		return fmt.Errorf("engine compiled %d times, %d responses report source compile (sources %v)",
			engineCompiles, sources["compile"], sources)
	}
	return nil
}

// checkProgram compares one tiered call of a generated program with the
// interpreter's result for the same arguments: return value and the
// scratch memory the program wrote.
func checkProgram(what string, got, want uint64, gotScratch, wantScratch []byte) error {
	if got != want {
		return fmt.Errorf("%s: returned %#x, interpreter %#x", what, got, want)
	}
	if !bytes.Equal(gotScratch, wantScratch) {
		return fmt.Errorf("%s: scratch memory differs from the interpreter's", what)
	}
	return nil
}
