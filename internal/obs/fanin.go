package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one Prometheus label pair.
type Label struct {
	Key string
	Val string
}

// Sample is one parsed Prometheus sample line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// ParseMetricsText parses Prometheus text exposition format 0.0.4 into
// samples, skipping comment/TYPE/HELP lines. It understands quoted
// label values with \\, \" and \n escapes. Lines that do not parse are
// reported as errors: a worker /metrics surface is ours end to end, so
// malformed lines indicate a bug, not foreign input.
func ParseMetricsText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		smp, err := parseSampleLine(s)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(s string) (Sample, error) {
	var smp Sample
	i := strings.IndexAny(s, "{ \t")
	if i < 0 {
		return smp, fmt.Errorf("no value: %q", s)
	}
	smp.Name = s[:i]
	rest := s[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return smp, err
		}
		smp.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; llmfi surfaces never emit one,
	// but tolerate it for robustness.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return smp, fmt.Errorf("bad value %q: %v", rest, err)
	}
	smp.Value = v
	return smp, nil
}

// parseLabels parses `key="val",...}` returning the labels and the text
// after the closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, ", ")
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := s[:eq]
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[1] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[1])
				default:
					val.WriteByte(s[1])
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		labels = append(labels, Label{Key: key, Val: val.String()})
	}
}

// scrapeState is one registered worker's latest scrape. Samples are
// retained across scrape failures so a churned worker's last-known
// series stay visible (marked down via llmfi_fleet_worker_up 0) instead
// of vanishing from the aggregate.
type scrapeState struct {
	addr    string
	up      bool
	scrapes uint64
	errors  uint64
	samples []Sample
}

// FanIn scrapes registered workers' /metrics endpoints and re-exports
// the union as aggregated llmfi_fleet_* series: per family, a sum and
// max across workers plus the per-worker breakdown.
type FanIn struct {
	client *http.Client

	mu      sync.Mutex
	workers map[string]*scrapeState //llmfi:guardedby mu
}

// NewFanIn builds a FanIn scraping via client (nil for a 5s-timeout
// default).
func NewFanIn(client *http.Client) *FanIn {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &FanIn{client: client, workers: make(map[string]*scrapeState)}
}

// Register adds (or re-addresses) a worker's metrics endpoint. addr is
// a full URL base, e.g. "http://127.0.0.1:9431"; the fan-in appends
// /metrics. Registering an empty addr is a no-op: workers without
// -http simply don't participate.
func (f *FanIn) Register(worker, addr string) {
	if worker == "" || addr == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.workers[worker]
	if st == nil {
		st = &scrapeState{}
		f.workers[worker] = st
	}
	st.addr = addr
}

// Workers returns the registered worker names, sorted.
func (f *FanIn) Workers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.workers))
	for w := range f.workers {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

// ScrapeOnce scrapes every registered worker once, sequentially in
// sorted-name order. Failures mark the worker down and retain its last
// samples.
func (f *FanIn) ScrapeOnce(ctx context.Context) {
	for _, name := range f.Workers() {
		f.mu.Lock()
		st := f.workers[name]
		addr := ""
		if st != nil {
			addr = st.addr
		}
		f.mu.Unlock()
		if addr == "" {
			continue
		}
		samples, err := f.scrape(ctx, addr)
		f.mu.Lock()
		if st := f.workers[name]; st != nil {
			st.scrapes++
			if err != nil {
				st.errors++
				st.up = false
			} else {
				st.up = true
				st.samples = samples
			}
		}
		f.mu.Unlock()
	}
}

func (f *FanIn) scrape(ctx context.Context, addr string) ([]Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return ParseMetricsText(io.LimitReader(resp.Body, 4<<20))
}

// Run scrapes on the given interval until ctx is done. Intended as a
// coordinator-side goroutine.
func (f *FanIn) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	f.ScrapeOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.ScrapeOnce(ctx)
		}
	}
}

// canonLabels orders labels by their rendered `key="value"` form. It
// returns that rendering joined, as a grouping key, and the ordered
// labels as key, value pairs for MetricsWriter.
func canonLabels(labels []Label) (key string, kv []string) {
	part := func(l Label) string { return l.Key + `="` + labelEscaper.Replace(l.Val) + `"` }
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return part(ls[i]) < part(ls[j]) })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = part(l)
		kv = append(kv, l.Key, l.Val)
	}
	return strings.Join(parts, ","), kv
}

// WriteText renders the fan-in state onto p: per-worker liveness/scrape
// counters, then for every scraped llmfi_* family the fleet aggregate
// (sum and max across workers) and the per-worker series,
// deterministically ordered.
func (f *FanIn) WriteText(p *MetricsWriter) {
	f.mu.Lock()
	type workerSnap struct {
		name string
		st   scrapeState
	}
	snaps := make([]workerSnap, 0, len(f.workers))
	for name, st := range f.workers {
		snaps = append(snaps, workerSnap{name: name, st: *st})
	}
	f.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	p.Family("llmfi_fleet_worker_up", "gauge", "Whether the last scrape of this worker's /metrics succeeded.")
	for _, s := range snaps {
		up := int64(0)
		if s.st.up {
			up = 1
		}
		p.Int("llmfi_fleet_worker_up", up, "worker", s.name)
	}
	p.Family("llmfi_fleet_worker_scrapes_total", "counter", "Scrape attempts against this worker.")
	for _, s := range snaps {
		p.Int("llmfi_fleet_worker_scrapes_total", int64(s.st.scrapes), "worker", s.name)
	}
	p.Family("llmfi_fleet_worker_scrape_errors_total", "counter", "Failed scrapes against this worker.")
	for _, s := range snaps {
		p.Int("llmfi_fleet_worker_scrape_errors_total", int64(s.st.errors), "worker", s.name)
	}

	// Group samples: family -> per-worker cells keyed by label set.
	type cell struct {
		worker string
		key    string   // canonical label set: grouping and order
		labels []string // the same labels as key, value pairs
		value  float64
	}
	families := make(map[string][]cell)
	for _, s := range snaps {
		for _, smp := range s.st.samples {
			if !strings.HasPrefix(smp.Name, "llmfi_") {
				continue
			}
			// Fleet-of-fleets guard: don't re-aggregate series that are
			// themselves fan-in output.
			if strings.HasPrefix(smp.Name, "llmfi_fleet_") {
				continue
			}
			fam := "llmfi_fleet_" + strings.TrimPrefix(smp.Name, "llmfi_")
			key, kv := canonLabels(smp.Labels)
			families[fam] = append(families[fam], cell{worker: s.name, key: key, labels: kv, value: smp.Value})
		}
	}
	famNames := make([]string, 0, len(families))
	for fam := range families {
		famNames = append(famNames, fam)
	}
	sort.Strings(famNames)
	for _, fam := range famNames {
		cells := families[fam]
		p.Family(fam, "untyped", "Fleet aggregate of the workers' llmfi_"+strings.TrimPrefix(fam, "llmfi_fleet_")+".")
		// Aggregate per original label set across workers.
		sums := make(map[string]float64)
		maxs := make(map[string]float64)
		labels := make(map[string][]string)
		var keys []string
		for _, c := range cells {
			if _, seen := labels[c.key]; !seen {
				labels[c.key] = c.labels
				keys = append(keys, c.key)
				maxs[c.key] = c.value
			} else if c.value > maxs[c.key] {
				maxs[c.key] = c.value
			}
			sums[c.key] += c.value
		}
		sort.Strings(keys)
		for _, k := range keys {
			p.Sample(fam, sums[k], append([]string{"agg", "sum"}, labels[k]...)...)
			p.Sample(fam, maxs[k], append([]string{"agg", "max"}, labels[k]...)...)
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].worker != cells[j].worker {
				return cells[i].worker < cells[j].worker
			}
			return cells[i].key < cells[j].key
		})
		for _, c := range cells {
			p.Sample(fam, c.value, append([]string{"worker", c.worker}, c.labels...)...)
		}
	}
}
