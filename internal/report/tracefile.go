package report

import "os"

// OpenTrace opens a propagation-trace JSONL file for writing; wrap it
// in an obs.JSONLWriter[trace.Record]. A fresh campaign truncates
// path (standard output-file semantics); a resumed campaign appends, so
// the records of the interrupted run are preserved and the file ends up
// covering exactly the sampled trials of the whole campaign — resumed
// trials are never re-executed, so append never duplicates a trial.
// appended reports whether existing records were kept.
func OpenTrace(path string, resuming bool) (f *os.File, appended bool, err error) {
	if !resuming {
		f, err = os.Create(path)
		return f, false, err
	}
	f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	if st, serr := f.Stat(); serr == nil && st.Size() > 0 {
		appended = true
	}
	return f, appended, nil
}
