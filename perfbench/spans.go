package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/fastpath"
)

// span is one timed call from the benchmark into a layer's public function
// (or a pipeline stage the program itself recorded and returned). Start and
// End are nanoseconds since the tracer started; Parent indexes the span that
// caused this one (-1 for none); Op is the operation the span belongs to
// (-1 outside operations).
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps every span of a traced run in memory; write dumps them at
// the end. A nil *tracer is the untraced run: every method is a no-op, so
// the workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id and attaches the given attributes (key, value pairs).
func (t *tracer) end(id int, attrs ...any) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64)
		}
		s.Attrs[attrs[i].(string)] = toFloat(attrs[i+1])
	}
}

// attr sets one attribute of span id after it ended.
func (t *tracer) attr(id int, key string, v any) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = toFloat(v)
}

// add records a finished span with explicit times (spans the program
// recorded itself and returned, re-based onto this tracer's clock).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic("perfbench: unsupported span attribute type")
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of it covered by
// its direct children (children of one parent never overlap: every
// workload calls layers sequentially within one operation).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// progTrace is a trace the program recorded itself (a dbrewd request with
// ?trace=1, a tier promotion under Engine.EnableTracing), re-based onto
// the tracer's clock. Parent fields index spans (-1 for top level).
type progTrace struct {
	start, end int64
	spans      []span
	failed     bool // the last recorded stage ended in an error
}

// parseTrace decodes the JSON form of a program trace; ok is false on a
// nil tracer or an empty or malformed trace. Stages that are calls into a
// layer this benchmark also calls get that layer's span name; the others
// keep their own name under a "program." prefix.
func parseTrace(tr *tracer, raw []byte) (pt progTrace, ok bool) {
	var t struct {
		Start   string `json:"start"`
		TotalNS int64  `json:"total_ns"`
		Spans   []struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			DurNS   int64  `json:"dur_ns"`
			Depth   int    `json:"depth"`
			Outcome string `json:"outcome"`
			Attrs   []struct {
				Key string `json:"key"`
				Val int64  `json:"val"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	if tr == nil || len(raw) == 0 || json.Unmarshal(raw, &t) != nil {
		return pt, false
	}
	t0, err := time.Parse(time.RFC3339Nano, t.Start)
	if err != nil {
		return pt, false
	}
	base := int64(t0.Sub(tr.t0))
	pt.start, pt.end = base, base+t.TotalNS
	var open []int // indices of the enclosing spans, by depth
	for i, s := range t.Spans {
		failed := strings.HasPrefix(s.Outcome, "error")
		if i == len(t.Spans)-1 {
			pt.failed = failed
		}
		for len(open) > 0 && t.Spans[open[len(open)-1]].Depth >= s.Depth {
			open = open[:len(open)-1]
		}
		parent := -1
		if len(open) > 0 {
			parent = open[len(open)-1]
		}
		open = append(open, i)

		attrs := make(map[string]float64)
		for _, a := range s.Attrs {
			attrs[a.Key] = float64(a.Val)
		}
		out := span{Name: "program." + s.Name, Start: base + s.StartNS, End: base + s.StartNS + s.DurNS,
			Parent: parent, Op: -1, Attrs: map[string]float64{}}
		if name, ok := importedNames[s.Name]; ok {
			out.Name = name
		}
		switch {
		case s.Name == "fastpath":
			out.Attrs["ok"] = toFloat(!failed)
			out.Attrs["copy"] = toFloat(!failed && attrs["mode"] == float64(fastpath.ModeCopy))
		case failed:
			// A failed stage has no size attributes; keep only its time.
		case s.Name == "rewrite":
			out.Attrs["emitted"] = attrs["insts_out"]
		case s.Name == "lift":
			out.Attrs["ir_insts"] = attrs["ir_values_out"]
		case s.Name == "optimize":
			out.Attrs["rounds"] = attrs["rounds"]
			out.Attrs["ir_insts_after"] = attrs["insts_out"]
		case s.Name == "jit":
			out.Attrs["code_bytes"] = attrs["code_bytes"]
		}
		pt.spans = append(pt.spans, out)
	}
	return pt, true
}

// addTrace records a program trace's spans under parent, for operation op.
func (t *tracer) addTrace(pt progTrace, parent, op int) {
	ids := make([]int, len(pt.spans))
	for i, s := range pt.spans {
		if s.Parent >= 0 {
			s.Parent = ids[s.Parent]
		} else {
			s.Parent = parent
		}
		s.Op = op
		ids[i] = t.add(s)
	}
}

// importedNames maps the pipeline's own stage names onto the layer span
// names this benchmark uses for its calls into the same functions. (The
// lifter's "decode" stage also discovers blocks, so it is not x86.Decode.)
var importedNames = map[string]string{
	"rewrite":  "dbrew.Rewrite",
	"lift":     "lift.LiftFunc",
	"optimize": "opt.Optimize",
	"jit":      "jit.CompileModule",
	"fastpath": "fastpath.Compile",
}
