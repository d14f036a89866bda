package trace

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file holds the trace serializer. It is deterministic: spans are
// emitted in creation order, attributes in insertion order, and no map is
// iterated — so a fixed seed yields byte-identical output. The golden-trace
// tests pin the same trace as a text tree (tracetest.Canonical).

// Rename rewrites span names, event names and attribute values during
// serialization. Tests use it to strip the per-process deployment prefix
// from function names so golden files are stable across test orderings.
type Rename func(string) string

func identity(s string) string { return s }

// ChromeJSON renders the trace in the Chrome trace-event format (the JSON
// array form), loadable in chrome://tracing and Perfetto. Spans become
// complete ("X") events; span events become instant ("i") events. Each
// invocation gets its own tid so parallel fork-join workers render as
// separate tracks; non-invocation spans inherit the nearest invocation's
// track.
func (t *Trace) ChromeJSON(rename Rename) []byte {
	if t == nil {
		return nil
	}
	if rename == nil {
		rename = identity
	}

	// Assign tracks: the root is tid 0, every invoke span opens a new tid,
	// and other spans inherit their parent's tid. Spans are in creation
	// order, so parents precede children.
	tids := make([]int, len(t.spans))
	next := 1
	for _, s := range t.spans {
		if s.Parent < 0 {
			tids[s.ID] = 0
			continue
		}
		if s.Kind == KindInvoke {
			tids[s.ID] = next
			next++
			continue
		}
		tids[s.ID] = tids[s.Parent]
	}

	var sb strings.Builder
	sb.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString(line)
	}
	for _, s := range t.spans {
		end := s.End
		if !s.ended {
			end = s.Start
		}
		var args strings.Builder
		fmt.Fprintf(&args, "%q:%q", "kind", s.Kind.String())
		if s.BilledMs != 0 || s.TotalBilledMs != 0 {
			fmt.Fprintf(&args, ",%q:%d,%q:%d", "billed_ms", s.BilledMs, "total_billed_ms", s.TotalBilledMs)
		}
		if s.Err != "" {
			fmt.Fprintf(&args, ",%q:%q", "error", rename(s.Err))
		}
		if s.Fault != "" {
			fmt.Fprintf(&args, ",%q:%q", "fault", s.Fault)
		}
		for _, a := range s.Attrs {
			fmt.Fprintf(&args, ",%q:%q", a.Key, rename(a.Val))
		}
		emit(fmt.Sprintf(`  {"name":%q,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{%s}}`,
			rename(s.Name), s.Kind.String(), micros(s.Start), micros(end-s.Start), tids[s.ID], args.String()))
		for _, ev := range s.Events {
			var evArgs strings.Builder
			for i, a := range ev.Attrs {
				if i > 0 {
					evArgs.WriteByte(',')
				}
				fmt.Fprintf(&evArgs, "%q:%q", a.Key, rename(a.Val))
			}
			emit(fmt.Sprintf(`  {"name":%q,"cat":"event","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":{%s}}`,
				rename(ev.Name), micros(ev.At), tids[s.ID], evArgs.String()))
		}
	}
	sb.WriteString("\n]\n")
	return []byte(sb.String())
}

// micros formats a virtual duration as Chrome's microsecond timestamps,
// with fixed precision so output is byte-deterministic.
func micros(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
}
