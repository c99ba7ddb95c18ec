package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// JSONLWriter appends records to a JSON Lines stream, one record per
// line: buffered, mutex-guarded and counted. Its Write fits both record
// sinks: a Recorder's span sink and the campaign runner's propagation-
// trace sink (core.WithTrace).
type JSONLWriter[T any] struct {
	mu sync.Mutex
	bw *bufio.Writer //llmfi:guardedby mu
	c  io.Closer
	n  int //llmfi:guardedby mu
}

// NewJSONLWriter wraps w. If w is also an io.Closer, Close closes it
// after flushing.
func NewJSONLWriter[T any](w io.Writer) *JSONLWriter[T] {
	jw := &JSONLWriter[T]{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		jw.c = c
	}
	return jw
}

// Write appends one record line.
func (w *JSONLWriter[T]) Write(rec T) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshal record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *JSONLWriter[T]) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Close flushes buffered lines and closes the underlying writer, if it
// is closable.
func (w *JSONLWriter[T]) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.bw.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadJSONL decodes a JSON Lines stream of records. Every record must
// carry schema, as read by schemaOf, and no field T does not know: a
// different schema or an extra key means the file was written by
// another build, so it is refused rather than misread. On a refused or
// malformed record ReadJSONL returns the records before it together
// with the error, so a file cut short by a crash still yields its
// complete prefix.
func ReadJSONL[T any](r io.Reader, schema int, schemaOf func(T) int) ([]T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []T
	for {
		var rec T
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("record %d: %w", len(out), err)
		}
		if got := schemaOf(rec); got != schema {
			return out, fmt.Errorf("record %d: schema %d, want %d", len(out), got, schema)
		}
		out = append(out, rec)
	}
}
