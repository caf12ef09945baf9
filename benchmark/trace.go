package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Span names. A span's id ties the spans of one query or one published
// (key, version) together: queryID and versionID build them.
const (
	spanQuery         = iota // one KeyHandle.Query call
	spanVersion              // one (key, version): authority's first send to last arrival
	spanDeliver              // one (key, version) reaching one node
	spanSend                 // one transport.Send call carrying a push
	spanHandler              // one call into live's inbound handler carrying a push
	spanRecord               // one store Record of an authority version
	spanRecordReplica        // one store RecordReplica
	spanSimRun               // one sim.Run of the traced λ sweep
	spanSchemeCalls          // the wrapped scheme's callbacks inside one sim.Run, summed
)

var spanNames = [...]string{
	"live.Query", "push.version", "push.deliver", "transport.Send",
	"live.handler", "store.Record", "store.RecordReplica", "sim.Run", "scheme.callbacks",
}

func queryID(client, seq int) uint64 { return 1<<62 | uint64(client)<<40 | uint64(seq) }

func versionID(key int, version int64) uint64 {
	return 2<<62 | uint64(key)<<40 | uint64(version)&(1<<40-1)
}

// noParent marks a span at the top of its query or version.
const noParent = -1

// span is one timed interval, in nanoseconds since the run's time base.
// id is shared by every span of one query or one (key, version); parent
// names the enclosing span of the same id.
type span struct {
	name, parent int8
	id           uint64
	start, end   int64
}

// slotLog keeps values in a preallocated slice. A writer reserves its
// slot with one atomic add, so recording takes no lock; past capacity
// values are counted and dropped. It is read only after every writer has
// stopped.
type slotLog[T any] struct {
	n atomic.Int64
	v []T
}

func newSlotLog[T any](capacity int) *slotLog[T] { return &slotLog[T]{v: make([]T, capacity)} }

func (l *slotLog[T]) add(x T) {
	if i := l.n.Add(1) - 1; i < int64(len(l.v)) {
		l.v[i] = x
	}
}

// values returns the stored values.
func (l *slotLog[T]) values() []T {
	if n := l.n.Load(); n < int64(len(l.v)) {
		return l.v[:n]
	}
	return l.v
}

// dropped counts the values that found the log full.
func (l *slotLog[T]) dropped() int64 { return l.n.Load() - int64(len(l.values())) }

// writeSpans stores the spans as JSON lines in dir/name and returns the
// path.
func writeSpans(spans []span, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		parent := ""
		if s.parent != noParent {
			parent = spanNames[s.parent]
		}
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.name], s.id, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
