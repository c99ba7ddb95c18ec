package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/serve"
)

// trialDigest hashes every field of a campaign's trials in index order.
// Two runs with the same seed must print the same digest.
func trialDigest(trials []core.Trial) string {
	h := sha256.New()
	for i, t := range trials {
		writeTrial(h, i, t)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeTrial writes one trial in a stable text form: the Detection
// pointer is written by value, and fmt prints map keys sorted.
func writeTrial(h hash.Hash, i int, t core.Trial) {
	det := t.Detection
	t.Detection = nil
	fmt.Fprintf(h, "%d|%+v", i, t)
	if det != nil {
		fmt.Fprintf(h, "|det%+v", *det)
	}
	h.Write([]byte{'\n'})
}

// sameTrial is the campaign replay gate: a replayed trial must equal the
// original in every field.
func sameTrial(a, b core.Trial) bool { return reflect.DeepEqual(a, b) }

// respKey is the part of a served response the replay gate compares:
// the tokens, whether the fault fired, its outcome and its detections.
type respKey struct {
	Tokens   []int
	Fired    bool
	Outcome  string
	Detected int
}

func keyOf(r serve.Response) respKey {
	return respKey{Tokens: r.Tokens, Fired: r.Fired, Outcome: r.Outcome, Detected: r.Detected}
}

func sameResponse(a, b respKey) bool {
	return slices.Equal(a.Tokens, b.Tokens) && a.Fired == b.Fired &&
		a.Outcome == b.Outcome && a.Detected == b.Detected
}

// responseDigest hashes the compared fields of every response in request
// order.
func responseDigest(keys []respKey) string {
	h := sha256.New()
	for i, k := range keys {
		fmt.Fprintf(h, "%d|%v|%t|%s|%d\n", i, k.Tokens, k.Fired, k.Outcome, k.Detected)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
