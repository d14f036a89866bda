package runtime_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// twoDeployments routes each arrival to the ShapeOnly or the Real
// deployment by its tag, so one replay drives both on one Env.
type twoDeployments map[string]*runtime.Deployment

func (r twoDeployments) Acquire(_ *simnet.Proc, model string) (gateway.Backend, gateway.Lease, error) {
	return r[model], noLease{}, nil
}

type noLease struct{}

func (noLease) Release() {}

// TestRecycledRecordsOutliveEveryHolder is the release rule of the records
// a warm query reuses (DESIGN §3, internal/runtime/pass.go and
// platform.Call) as a test. A ShapeOnly and a Real deployment of the same
// plan serve one interleaved, traced replay on one Env, under injected
// failures, evictions and stragglers, with retries, hedging and master
// fallback: hedge losers settle after their round and their query, and
// callers retry after a failed round has stopped waiting for them. Once the
// Env drains, no record is on its free list twice, no Outcome, Result or
// trace holds a record, no invocation read a record after it was released
// (the records check that on reuse, and a worker handed a released request
// fails), and every Real output is graph.Forward's, bit for bit.
func TestRecycledRecordsOutliveEveryHolder(t *testing.T) {
	const queries = 400
	m := newOwnedModel(t, "lifetime", 45, queries, func(n int) []partition.GroupPlan {
		return []partition.GroupPlan{
			{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
			{First: 1, Last: n - 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}},
			{First: n - 1, Last: n - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
		}
	})
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.05, EvictionProb: 0.05, StragglerProb: 0.2, StragglerFactor: 8}
	p := platform.New(simnet.NewEnv(), cfg, 11)
	names := []string{"shape", "real"}
	route := twoDeployments{}
	for i, mode := range []runtime.ExecMode{runtime.ShapeOnly, runtime.Real} {
		d, err := runtime.Deploy(p, m.units, m.plan, mode,
			runtime.WithRetries(1, 5), runtime.WithHedging(60), runtime.WithMasterFallback())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Prewarm(); err != nil {
			t.Fatal(err)
		}
		route[names[i]] = d
	}
	tag := func(i int) string { return names[i*7%3%2] }
	at := make([]time.Duration, queries)
	for i := range at {
		at[i] = time.Duration(i) * 15 * time.Millisecond
	}
	_, outs, err := gateway.Run(route["real"], at, gateway.Config{
		MaxInFlight: 4,
		QueueCap:    queries,
		Traced:      true,
		Input:       func(i int) *tensor.Tensor { return m.xs[i] },
		Model:       tag,
		Router:      route,
	})
	if err != nil {
		t.Fatal(err)
	}

	pooled := append(slices.Clone(runtime.PooledTypes), reflect.TypeFor[platform.Call](), reflect.TypeFor[platform.Ctx]())
	var hedges, retries, fallbacks, outlived, failed int
	for i, o := range outs {
		if path := holdsRecord(o, pooled); path != "" {
			t.Errorf("query %d: its Outcome holds a recycled record at %s", i, path)
		}
		if o.Err != "" {
			failed++
		} else if tag(i) == "real" && !tensor.Equal(o.Output, m.want[i]) {
			t.Errorf("query %d: output differs from graph.Forward", i)
		}
		tracetest.CheckWellFormed(t, o.Trace)
		hedges += tracetest.CountEvents(o.Trace, "hedge")
		retries += tracetest.CountEvents(o.Trace, "retry")
		outlived += losersOutlivingTheirRound(o.Trace)
		for _, sp := range o.Trace.Spans() {
			fallbacks += boolInt(sp.Kind == trace.KindFallback)
			if strings.Contains(sp.Err, "runtime:") {
				t.Errorf("query %d: span %s failed in a handler: %s", i, sp.Name, sp.Err)
			}
		}
	}
	t.Logf("%d queries: %d failed, %d hedges, %d losers past their round, %d retries, %d fallbacks", queries, failed, hedges, outlived, retries, fallbacks)
	if hedges == 0 || outlived == 0 || retries == 0 || fallbacks == 0 || failed == 0 {
		t.Fatal("the scenario must hedge, leave losers past their round, retry, fall back and fail some queries")
	}

	// A direct serve's Result on the drained Env, then every free list.
	p.Env().Go("client", func(proc *simnet.Proc) {
		for _, mode := range names {
			res, tr, err := route[mode].ServeBatch(proc, []*tensor.Tensor{m.xs[0]}, 1, true)
			if err != nil {
				t.Errorf("%s: %v", mode, err)
			}
			if path := holdsRecord(res, pooled) + holdsRecord(tr, pooled); path != "" {
				t.Errorf("%s: the Result or its trace holds a recycled record at %s", mode, path)
			}
		}
	})
	if err := p.Env().Run(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range names {
		free, err := route[mode].FreeRecords()
		if err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		t.Logf("%s: on the free lists %v", mode, free)
		if free["pass"] == 0 {
			t.Errorf("%s: a kind of record never came back to its free list: %v", mode, free)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// holdsRecord returns the path to the first value reachable from v whose
// type is one of types, or "" when there is none.
func holdsRecord(v any, types []reflect.Type) string {
	type visit struct {
		ptr uintptr
		typ reflect.Type
	}
	seen := make(map[visit]bool)
	var walk func(rv reflect.Value, path string) string
	walk = func(rv reflect.Value, path string) string {
		if !rv.IsValid() {
			return ""
		}
		if slices.Contains(types, rv.Type()) {
			return path
		}
		switch rv.Kind() {
		case reflect.Pointer:
			if rv.IsNil() || seen[visit{rv.Pointer(), rv.Type()}] {
				return ""
			}
			seen[visit{rv.Pointer(), rv.Type()}] = true
			return walk(rv.Elem(), "(*"+path+")")
		case reflect.Interface:
			return walk(rv.Elem(), path)
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				if p := walk(rv.Field(i), path+"."+rv.Type().Field(i).Name); p != "" {
					return p
				}
			}
		case reflect.Slice, reflect.Array:
			switch rv.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			default:
				return "" // numbers and strings hold nothing
			}
			for i := 0; i < rv.Len(); i++ {
				if p := walk(rv.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
					return p
				}
			}
		case reflect.Map:
			for it := rv.MapRange(); it.Next(); {
				if p := walk(it.Key(), path+"{key}"); p != "" {
					return p
				}
				if p := walk(it.Value(), path+"{value}"); p != "" {
					return p
				}
			}
		}
		return ""
	}
	return walk(reflect.ValueOf(v), reflect.TypeOf(v).String())
}
