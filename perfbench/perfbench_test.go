package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/crosstest"
	"repro/internal/emu"
	"repro/internal/service"
	"repro/internal/stencil"
)

func TestPercentileMatchesHandComputed(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestClassLatencyIsGeometricMeanOfClassPercentiles(t *testing.T) {
	byClass := map[string][]float64{
		"hit":     {1, 2, 3},    // median 2
		"compile": {8, 8, 8, 8}, // median 8
	}
	if got, want := classLatency(byClass, 50), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("classLatency p50 = %v, want %v (sqrt(2*8))", got, want)
	}
	// p90: hit 2.8 (pos 1.8 between 2 and 3), compile 8.
	if got, want := classLatency(byClass, 90), math.Sqrt(2.8*8); math.Abs(got-want) > 1e-12 {
		t.Errorf("classLatency p90 = %v, want %v", got, want)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "lift", Start: 10, End: 40, Parent: 0},
		{Name: "jit", Start: 50, End: 70, Parent: 0},
		{Name: "inner", Start: 55, End: 60, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{50, 30, 15, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestParseTraceKeepsNesting(t *testing.T) {
	tr := newTracer()
	start := tr.t0.Add(time.Millisecond).UTC().Format(time.RFC3339Nano)
	raw := `{"name":"tier1.promote","start":"` + start + `","total_ns":1000,"spans":[` +
		`{"name":"fastpath","start_ns":0,"dur_ns":900,"depth":0,"outcome":"error: call to unknown function"},` +
		`{"name":"decode","start_ns":10,"dur_ns":100,"depth":1},` +
		`{"name":"lift","start_ns":120,"dur_ns":500,"depth":1,"outcome":"error: x"},` +
		`{"name":"jit","start_ns":910,"dur_ns":50,"depth":0,"attrs":[{"key":"code_bytes","val":64}]}]}`
	pt, ok := parseTrace(tr, []byte(raw))
	if !ok {
		t.Fatal("parseTrace rejected a well-formed trace")
	}
	names := []string{"fastpath.Compile", "program.decode", "lift.LiftFunc", "jit.CompileModule"}
	parents := []int{-1, 0, 0, -1}
	for i, s := range pt.spans {
		if s.Name != names[i] || s.Parent != parents[i] {
			t.Errorf("span %d = %s (parent %d), want %s (parent %d)", i, s.Name, s.Parent, names[i], parents[i])
		}
	}
	if pt.spans[0].Attrs["ok"] != 0 || pt.spans[3].Attrs["code_bytes"] != 64 {
		t.Errorf("attributes not carried over: %+v / %+v", pt.spans[0].Attrs, pt.spans[3].Attrs)
	}
	if pt.failed {
		t.Errorf("trace whose last stage succeeded marked failed")
	}
	if d := pt.start - int64(time.Millisecond); d < 0 || d > int64(time.Microsecond) {
		t.Errorf("trace start re-based to %d ns, want ~1ms", pt.start)
	}
}

// The planted-error tests below run each check on correct data first (it
// must pass) and then with one planted error (it must fail).

func TestCheckElementsRejectsWrongElement(t *testing.T) {
	const sz = 8
	mem := emu.NewMemory(0x10000000)
	m1 := stencil.NewMatrix(mem, sz, "m1")
	for r := 1; r < sz-1; r++ {
		for c := 1; c < sz-1; c++ {
			m1.Set(r, c, float64(r*10+c)/64)
		}
	}
	ref := m1.Slice()
	st := stencil.EightPoint()
	out := make([]float64, sz*sz)
	idx0, n := 3*sz+1, sz-2
	for idx := idx0; idx < idx0+n; idx++ {
		out[idx] = st.ApplySorted(ref, sz, idx) // grouped order: equal within tolerance
	}
	get := func(idx int) float64 { return out[idx] }
	if err := checkElements("row", st, ref, sz, idx0, n, get); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	out[idx0+2] += 1e-6
	if err := checkElements("row", st, ref, sz, idx0, n, get); err == nil {
		t.Fatal("wrong stencil element accepted")
	}
	out[idx0+2] = math.NaN()
	if err := checkElements("row", st, ref, sz, idx0, n, get); err == nil {
		t.Fatal("unwritten (NaN) stencil element accepted")
	}
}

func TestRunAndCheckElementsRejectsCodeThatWritesNothing(t *testing.T) {
	const sz = 8
	mem := emu.NewMemory(0x10000000)
	m1 := stencil.NewMatrix(mem, sz, "m1")
	for r := 1; r < sz-1; r++ {
		for c := 1; c < sz-1; c++ {
			m1.Set(r, c, float64(r*10+c)/64)
		}
	}
	ref := m1.Slice()
	st := stencil.FourPoint()
	out := stencil.NewMatrix(mem, sz, "m2")
	idx0, n := 2*sz+1, sz-2
	write := func() error {
		for idx := idx0; idx < idx0+n; idx++ {
			out.Set(idx/sz, idx%sz, st.Apply(ref, sz, idx))
		}
		return nil
	}
	if err := runAndCheckElements("row", st, ref, out, sz, idx0, n, write); err != nil {
		t.Fatalf("code that writes the right row rejected: %v", err)
	}
	// The output still holds the right values from the call above, as it
	// does when the previous handle used the same stencil.
	if err := runAndCheckElements("row", st, ref, out, sz, idx0, n, func() error { return nil }); err == nil {
		t.Fatal("code that writes nothing accepted on a correct leftover row")
	}
	if err := runAndCheckElements("row", st, ref, out, sz, idx0, n, func() error { return errors.New("fault") }); err == nil {
		t.Fatal("failed call accepted")
	}
}

func TestCheckSameResponseRejectsFlippedByte(t *testing.T) {
	first := &service.Response{Addr: 0x10001000, Code: []byte{0x48, 0x89, 0xf8, 0xc3}, Source: "compile",
		Stats: service.CompileStats{Emitted: 3, CodeSize: 4}}
	again := *first
	again.Code = append([]byte(nil), first.Code...)
	again.Source, again.CacheHit, again.ElapsedUS = "memory", true, 900
	if err := checkSameResponse("k", first, &again); err != nil {
		t.Fatalf("identical repeated response rejected: %v", err)
	}
	again.Code[2] ^= 0x01
	if err := checkSameResponse("k", first, &again); err == nil {
		t.Fatal("repeated response with one flipped byte accepted")
	}
}

func TestCheckCompileCountRejectsOffByOne(t *testing.T) {
	sources := map[string]int{"compile": 41, "memory": 959}
	if err := checkCompileCount(41, sources); err != nil {
		t.Fatalf("matching compile count rejected: %v", err)
	}
	for _, n := range []int64{40, 42} {
		if err := checkCompileCount(n, sources); err == nil {
			t.Errorf("engine compile count %d accepted against 41 compile responses", n)
		}
	}
}

func TestCheckProgramRejectsWrongReturnValue(t *testing.T) {
	var p *crosstest.Program
	for s := int64(1); p == nil; s++ {
		q, err := crosstest.GenerateWithMask(s, crosstest.FeatNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		if !q.UsesFP {
			p = q
		}
	}
	args := [2]uint64{12345, 678}
	want, err := interpret(p, args)
	if err != nil {
		t.Fatal(err)
	}
	// The same program on the default (block and trace) engines: the result
	// a tiered call at tier 0 returns.
	mem, entry, scratch, err := p.Place()
	if err != nil {
		t.Fatal(err)
	}
	got, buf, err := crosstest.RunNative(mem, entry, scratch, p, args[0], args[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProgram(p.Desc, got, want.rax, buf, want.scratch); err != nil {
		t.Fatalf("engine result rejected against the interpreter: %v", err)
	}
	if err := checkProgram(p.Desc, got+1, want.rax, buf, want.scratch); err == nil ||
		!strings.Contains(err.Error(), "returned") {
		t.Fatalf("wrong tiered return value accepted (err %v)", err)
	}
	buf[0] ^= 0x80
	if err := checkProgram(p.Desc, got, want.rax, buf, want.scratch); err == nil {
		t.Fatal("wrong scratch memory accepted")
	}
}
