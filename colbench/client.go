package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"colarm"
)

// client drives a server's handler in-process: every request is served
// by a direct ServeHTTP call into a recorder, with no socket in between.
type client struct{ h http.Handler }

// call serves one request and returns its status, body and the time the
// handler took.
func (c client) call(method, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if len(body) > 0 && body[0] == '{' {
		req.Header.Set("Content-Type", "application/json")
	} else if len(body) > 0 {
		req.Header.Set("Content-Type", "text/plain")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// postJSON marshals v and POSTs it.
func (c client) postJSON(path string, v any) (int, []byte, time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, 0, err
	}
	st, out, d := c.call("POST", path, body)
	return st, out, d, nil
}

// mineBody is the JSON form of a /v1/mine request.
type mineBody struct {
	Dataset        string              `json:"dataset"`
	Range          map[string][]string `json:"range,omitempty"`
	ItemAttributes []string            `json:"itemAttributes,omitempty"`
	MinSupport     float64             `json:"minSupport"`
	MinConfidence  float64             `json:"minConfidence"`
	MaxConsequent  int                 `json:"maxConsequent,omitempty"`
	Plan           string              `json:"plan,omitempty"`
	NoCache        bool                `json:"noCache,omitempty"`
}

func mineJSON(dataset string, q colarm.Query, noCache bool) []byte {
	b := mineBody{
		Dataset:        dataset,
		Range:          q.Range,
		ItemAttributes: q.ItemAttributes,
		MinSupport:     q.MinSupport,
		MinConfidence:  q.MinConfidence,
		MaxConsequent:  q.MaxConsequent,
		NoCache:        noCache,
	}
	if q.Plan != colarm.Auto {
		b.Plan = q.Plan.String()
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return out
}

// The server encodes every /v1/mine answer with the same indented
// encoder, so equal rule lists are equal bytes between these markers.
var (
	rulesMarker = []byte(`"rules": `)
	statsMarker = []byte(`"stats": {`)
)

// rulesDigest hashes the rules array of a /v1/mine answer without
// decoding it; answers that must agree (one query under every plan, a
// cached answer and its first computation) must have equal digests.
func rulesDigest(body []byte) (uint64, error) {
	i := bytes.Index(body, rulesMarker)
	j := bytes.Index(body, statsMarker)
	if i < 0 || j < i {
		return 0, fmt.Errorf("answer has no rules array")
	}
	h := fnv.New64a()
	h.Write(body[i:j])
	return h.Sum64(), nil
}

// answerPlan reads the plan that produced a /v1/mine answer from the
// stats object that follows its rules.
func answerPlan(body []byte) (string, error) {
	j := bytes.Index(body, statsMarker)
	if j < 0 {
		return "", fmt.Errorf("answer has no stats")
	}
	var tail struct {
		Stats struct {
			Plan string `json:"plan"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(append([]byte("{"), body[j:]...), &tail); err != nil {
		return "", fmt.Errorf("decoding answer stats: %w", err)
	}
	return tail.Stats.Plan, nil
}

// cachedMarker is how the server's encoder writes a cache hit.
var cachedMarker = []byte(`"cached": true`)

func isCached(body []byte) bool { return bytes.Contains(body, cachedMarker) }

// wireRule is a rule as /v1/mine and the event stream render it.
type wireRule struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	Support         float64  `json:"support"`
	Confidence      float64  `json:"confidence"`
	Lift            float64  `json:"lift"`
	Cosine          float64  `json:"cosine"`
	Kulczynski      float64  `json:"kulczynski"`
	SupportCount    int      `json:"supportCount"`
	AntecedentCount int      `json:"antecedentCount"`
	SubsetSize      int      `json:"subsetSize"`
}

func (r wireRule) key() string {
	return strings.Join(r.Antecedent, "\x1f") + "\x1e" + strings.Join(r.Consequent, "\x1f")
}

func fromRule(r colarm.Rule) wireRule {
	return wireRule{
		Antecedent: r.Antecedent, Consequent: r.Consequent,
		Support: r.Support, Confidence: r.Confidence, Lift: r.Lift,
		Cosine: r.Cosine, Kulczynski: r.Kulczynski,
		SupportCount: r.SupportCount, AntecedentCount: r.AntecedentCount, SubsetSize: r.SubsetSize,
	}
}

// ruleSet is a rule list keyed by antecedent and consequent.
type ruleSet map[string]wireRule

func toSet(rs []wireRule) ruleSet {
	out := make(ruleSet, len(rs))
	for _, r := range rs {
		out[r.key()] = r
	}
	return out
}

// equal compares two rule sets rule by rule, measures included.
func (a ruleSet) equal(b ruleSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, r := range a {
		o, ok := b[k]
		if !ok || r.SupportCount != o.SupportCount || r.AntecedentCount != o.AntecedentCount ||
			r.SubsetSize != o.SubsetSize || r.Support != o.Support || r.Confidence != o.Confidence ||
			r.Lift != o.Lift || r.Cosine != o.Cosine || r.Kulczynski != o.Kulczynski {
			return false
		}
	}
	return true
}

// mineAnswer is the part of a /v1/mine answer the benchmark reads.
type mineAnswer struct {
	Version uint64     `json:"version"`
	Rules   []wireRule `json:"rules"`
}

func decodeAnswer(body []byte) (*mineAnswer, error) {
	var a mineAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, nil
}

// promValue reads one sample from a Prometheus text exposition; series
// is the metric name with its label set as exposed, e.g.
// `colarm_cache_hits_total` or `x_total{type="diff"}`. A missing series
// reads 0.
func promValue(text []byte, series string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	prefix := series + " "
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(prefix):]), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
