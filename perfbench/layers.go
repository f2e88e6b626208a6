package main

import (
	"fmt"
	"io"
)

// Per-layer metrics of a traced run, all computed from its spans. Span
// names are the layer functions the benchmark calls (or, for work the
// program does on its own behalf, the pipeline stage it recorded):
//
//	x86.Decode            attrs: insts
//	dbrew.Rewrite         attrs: allocs (benchmark's own calls), emitted
//	lift.LiftFunc         attrs: ir_insts
//	opt.Optimize          attrs: rounds, ir_insts_after
//	jit.CompileModule     attrs: code_bytes
//	fastpath.Compile      attrs: ok, copy
//	emu.Machine.Call      attrs: insts
//	TieredFunc.Call       attrs: insts, tier
//	emu.Memory.Alloc      (probe allocation on the workload's address space)
//	tier.promote          attrs: tier, ok
//	service.Client.Specialize  attrs: handler_us, request_bytes
//	run.counters          attrs: the counters the program exports
//
// A metric whose layer the workload does not exercise reads 0.

// layerUnits lists every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"x86.decode_ns_per_inst", "ns"},
	{"dbrew.rewrite_ms", "ms"},
	{"dbrew.allocs_per_rewrite", "count"},
	{"dbrew.emitted_insts", "count"},
	{"lift.ms", "ms"},
	{"lift.ir_insts", "count"},
	{"opt.ms", "ms"},
	{"opt.rounds", "count"},
	{"opt.ir_insts_after", "count"},
	{"jit.ms", "ms"},
	{"jit.code_bytes", "bytes"},
	{"fastpath.compile_us", "us"},
	{"fastpath.copy_share", "ratio"},
	{"emu.minst_per_s", "Minst/s"},
	{"emu.alloc_us", "us"},
	{"emu.regions", "count"},
	{"emu.region_mb", "MB"},
	{"emu.trace_compiled", "count"},
	{"emu.trace_native_compiled", "count"},
	{"emu.trace_aborted", "count"},
	{"emu.trace_side_exits", "count"},
	{"emu.trace_links", "count"},
	{"tier.t1_compile_ms", "ms"},
	{"tier.t2_compile_ms", "ms"},
	{"tier.compile_errors", "count"},
	{"tier.tier2_call_share", "ratio"},
	{"codecache.hit_ratio", "ratio"},
	{"codecache.coalesced", "count"},
	{"service.handler_ms_p50", "ms"},
	{"service.transport_ms_p50", "ms"},
	{"service.request_kb", "KB"},
	{"service.delta_misses", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
}

// counterMetrics are copied from the run.counters span unchanged.
var counterMetrics = []string{
	"emu.regions", "emu.region_mb",
	"emu.trace_compiled", "emu.trace_native_compiled", "emu.trace_aborted",
	"emu.trace_side_exits", "emu.trace_links",
	"tier.compile_errors", "codecache.hit_ratio", "codecache.coalesced",
	"service.delta_misses", "go.gc_cycles", "go.gc_pause_ms",
}

func layerMetrics(spans []span) map[string]metric {
	self := selfTimes(spans)
	byName := make(map[string][]int)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	// durMS is the median duration of the named spans, in ms, restricted
	// to those whose attribute key equals want (key "" keeps all). A call
	// into a layer counts whole, with what it calls in turn.
	durMS := func(name, key string, want float64) float64 {
		var xs []float64
		for _, i := range byName[name] {
			if v, ok := spans[i].Attrs[key]; key == "" || (ok && v == want) {
				xs = append(xs, float64(spans[i].End-spans[i].Start)/1e6)
			}
		}
		return median(xs)
	}
	// attrMean averages an attribute over the named spans that carry it.
	attrMean := func(name, key string) float64 {
		var xs []float64
		for _, i := range byName[name] {
			if v, ok := spans[i].Attrs[key]; ok {
				xs = append(xs, v)
			}
		}
		return mean(xs)
	}
	// perUnit sums self time (ns) and an attribute over the named spans.
	perUnit := func(key string, names ...string) (ns, units float64) {
		for _, n := range names {
			for _, i := range byName[n] {
				if v, ok := spans[i].Attrs[key]; ok {
					ns += float64(self[i])
					units += v
				}
			}
		}
		return ns, units
	}

	v := make(map[string]float64)
	if ns, insts := perUnit("insts", "x86.Decode"); insts > 0 {
		v["x86.decode_ns_per_inst"] = ns / insts
	}
	v["dbrew.rewrite_ms"] = durMS("dbrew.Rewrite", "", 0)
	v["dbrew.allocs_per_rewrite"] = attrMean("dbrew.Rewrite", "allocs")
	v["dbrew.emitted_insts"] = attrMean("dbrew.Rewrite", "emitted")
	v["lift.ms"] = durMS("lift.LiftFunc", "", 0)
	v["lift.ir_insts"] = attrMean("lift.LiftFunc", "ir_insts")
	v["opt.ms"] = durMS("opt.Optimize", "", 0)
	v["opt.rounds"] = attrMean("opt.Optimize", "rounds")
	v["opt.ir_insts_after"] = attrMean("opt.Optimize", "ir_insts_after")
	v["jit.ms"] = durMS("jit.CompileModule", "", 0)
	v["jit.code_bytes"] = attrMean("jit.CompileModule", "code_bytes")
	v["fastpath.compile_us"] = 1000 * durMS("fastpath.Compile", "", 0)
	if ok := attrMean("fastpath.Compile", "ok"); ok > 0 {
		v["fastpath.copy_share"] = attrMean("fastpath.Compile", "copy") / ok
	}
	if ns, insts := perUnit("insts", "emu.Machine.Call", "TieredFunc.Call"); ns > 0 {
		v["emu.minst_per_s"] = insts / ns * 1e3
	}
	v["emu.alloc_us"] = 1000 * durMS("emu.Memory.Alloc", "", 0)
	v["tier.t1_compile_ms"] = durMS("tier.promote", "tier", 1)
	v["tier.t2_compile_ms"] = durMS("tier.promote", "tier", 2)
	if calls := byName["TieredFunc.Call"]; len(calls) > 0 {
		top := 0
		for _, i := range calls {
			if spans[i].Attrs["tier"] == 2 {
				top++
			}
		}
		v["tier.tier2_call_share"] = float64(top) / float64(len(calls))
	}
	var handler, transport []float64
	for _, i := range byName["service.Client.Specialize"] {
		h := spans[i].Attrs["handler_us"] / 1000
		handler = append(handler, h)
		transport = append(transport, float64(spans[i].End-spans[i].Start)/1e6-h)
	}
	v["service.handler_ms_p50"] = median(handler)
	v["service.transport_ms_p50"] = median(transport)
	v["service.request_kb"] = attrMean("service.Client.Specialize", "request_bytes") / 1024
	for _, i := range byName["run.counters"] {
		for _, k := range counterMetrics {
			v[k] = spans[i].Attrs[k]
		}
	}

	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{Value: v[l.name], Unit: l.unit}
	}
	return out
}

// printSelfTimes writes, per span name, the call count and the total self
// time (duration minus the child spans): where a traced run's time went.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]int64)
	count := make(map[string]int)
	for i, s := range spans {
		total[s.Name] += self[i]
		count[s.Name]++
	}
	fmt.Fprintf(w, "perfbench: self time by span\n")
	for _, n := range sortedKeys(total) {
		fmt.Fprintf(w, "perfbench:   %-32s %8d calls %12.3f ms\n", n, count[n], float64(total[n])/1e6)
	}
}
