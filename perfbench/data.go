package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"midas"
	"midas/internal/datagen"
	"midas/internal/source"
)

// slimWorld generates ReVerb-Slim for the seed: 100 domains, 50 of them
// holding profitable slices (10/5 at self-test scale).
func slimWorld(seed int64, tiny bool) *datagen.World {
	p := datagen.DefaultSlimParams(seed)
	if tiny {
		p.Domains, p.GoodDomains = 10, 5
	}
	return datagen.ReVerbSlim(p)
}

// worldFacts renders the world's trusted extractions as the public
// fact type, in corpus order.
func worldFacts(w *datagen.World) []midas.Fact {
	out := make([]midas.Fact, len(w.Corpus.Facts))
	for i, e := range w.Corpus.Facts {
		s, p, o := w.Corpus.Space.StringTriple(e.Triple)
		out[i] = midas.Fact{
			Subject: s, Predicate: p, Object: o,
			Confidence: float64(e.Conf),
			URL:        w.Corpus.URLs.String(e.URL),
		}
	}
	return out
}

// worldKBTSV renders the world's knowledge base as KB.LoadTSV input.
func worldKBTSV(w *datagen.World) []byte {
	var b bytes.Buffer
	if err := w.KB.WriteTSV(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// factsTSV renders facts in the layout the facts endpoint accepts:
// subject, predicate, object, confidence, url. Confidence is printed
// with the shortest representation that parses back to the same
// float64, so the server applies exactly the facts the benchmark's
// oracles replay.
func factsTSV(facts []midas.Fact) []byte {
	var b bytes.Buffer
	for _, f := range facts {
		b.WriteString(f.Subject)
		b.WriteByte('\t')
		b.WriteString(f.Predicate)
		b.WriteByte('\t')
		b.WriteString(f.Object)
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(f.Confidence, 'g', -1, 64))
		b.WriteByte('\t')
		b.WriteString(f.URL)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// byDomain groups facts by their domain-level web source, returning the
// domains sorted.
func byDomain(facts []midas.Fact) (map[string][]midas.Fact, []string) {
	groups := make(map[string][]midas.Fact)
	for _, f := range facts {
		d := domainOf(f.URL)
		groups[d] = append(groups[d], f)
	}
	domains := make([]string, 0, len(groups))
	for d := range groups {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	return groups, domains
}

// splitHoldout splits each domain's facts into a loaded share and a
// held-out share, choosing facts at random from the seed.
func splitHoldout(groups map[string][]midas.Fact, domains []string, share float64, seed int64) (loaded, held map[string][]midas.Fact) {
	rng := rand.New(rand.NewSource(seed))
	loaded = make(map[string][]midas.Fact, len(groups))
	held = make(map[string][]midas.Fact, len(groups))
	for _, d := range domains {
		for _, f := range groups[d] {
			if rng.Float64() < share {
				held[d] = append(held[d], f)
			} else {
				loaded[d] = append(loaded[d], f)
			}
		}
	}
	return loaded, held
}

// normSlices converts library slices to the service's JSON slice shape,
// so library and HTTP results compare field for field.
func normSlices(slices []midas.Slice) []apiSlice {
	out := make([]apiSlice, len(slices))
	for i, s := range slices {
		props := make([]apiProp, len(s.Properties))
		for k, p := range s.Properties {
			props[k] = apiProp{Predicate: p.Predicate, Value: p.Value}
		}
		ents := s.Entities
		if ents == nil {
			ents = []string{}
		}
		out[i] = apiSlice{
			Source: s.Source, Description: s.Description, Properties: props,
			Entities: ents, Facts: s.Facts, NewFacts: s.NewFacts, Profit: s.Profit,
		}
	}
	return out
}

// digest condenses ranked slices, profits included, into a comparable
// fingerprint.
func digest(slices []apiSlice) string {
	for i := range slices {
		if slices[i].Entities == nil {
			slices[i].Entities = []string{}
		}
		if slices[i].Properties == nil {
			slices[i].Properties = []apiProp{}
		}
	}
	b, err := json.Marshal(slices)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(slices))
}

// domainOf is the domain-level web source of a page URL.
func domainOf(url string) string { return source.Domain(source.Normalize(url)) }
