package platform

import (
	"gillis/internal/simnet"
	"gillis/internal/trace"
)

// invokeFromSpanSpawned is InvokeFromSpan as it stood before synchronous
// invocations ran on their caller's process: the invocation runs on a process
// spawned for it, and the caller parks on a promise until it settles.
// TestInlineInvokeKeepsEventOrder holds the inline path to it.
func (p *Platform) invokeFromSpanSpawned(proc *simnet.Proc, name string, payload Payload, parent *trace.Span) (InvokeResult, error) {
	return settled(p.invokeAsync(nil, parent, name, payload).Wait(proc))
}
