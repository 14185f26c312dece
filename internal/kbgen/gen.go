package kbgen

import (
	"fmt"
	"math"
	"math/rand"

	"rex/internal/kb"
)

// Options parameterises the synthetic entertainment knowledge base. All
// counts scale linearly with Scale; the defaults at Scale=1 produce a
// graph of roughly 2,700 entities and 9,000 relationships whose local
// density around popular entities resembles the paper's DBpedia
// extraction. Scale≈75 approximates the paper's 200K entities / 1.3M
// relationships.
type Options struct {
	// Scale multiplies every entity population. Values ≤ 0 mean 1.
	Scale float64
	// Seed drives the deterministic pseudo-random construction.
	Seed int64
	// ZipfExponent shapes the popularity skew of people and films;
	// larger values concentrate work on fewer hubs. Default 0.9.
	ZipfExponent float64
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.ZipfExponent <= 0 {
		o.ZipfExponent = 0.9
	}
	return o
}

// Generate builds a synthetic entertainment knowledge base. The schema
// follows the paper's DBpedia extraction: films with casts, directors,
// producers, writers, studios, genres, franchises and sequels; TV shows;
// a music sub-domain (bands, albums, songs); people with marriages,
// partnerships, siblings, awards and birthplaces. Popularity is
// Zipf-distributed so popular actors star in many films — exactly the
// density skew that stresses explanation enumeration.
func Generate(opt Options) *kb.Graph {
	opt = opt.normalized()
	rng := rand.New(rand.NewSource(opt.Seed))
	g := kb.NewBuilder()
	b := builder{g: g, labels: map[string]kb.LabelID{}}

	n := func(base int) int {
		v := int(float64(base) * opt.Scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	// Entity populations at Scale=1.
	numActors := n(600)
	numDirectors := n(80)
	numProducers := n(60)
	numWriters := n(80)
	numMusicians := n(150)
	numFilms := n(700)
	numTVShows := n(60)
	numBands := n(40)
	numAlbums := n(90)
	numSongs := n(250)
	numCharacters := n(200)
	numGenres := clampInt(n(18), 6, 40)
	numAwards := clampInt(n(10), 4, 24)
	numStudios := clampInt(n(15), 5, 40)
	numCities := clampInt(n(40), 10, 120)
	numCountries := clampInt(n(12), 6, 30)
	numFranchises := clampInt(n(20), 5, 60)
	numChannels := clampInt(n(8), 4, 20)
	numFestivals := clampInt(n(6), 3, 15)
	numLabels := clampInt(n(10), 4, 25)

	mk := func(prefix, typ string, count int) []kb.NodeID {
		ids := make([]kb.NodeID, count)
		for i := range ids {
			ids[i] = b.node(fmt.Sprintf("%s_%04d", prefix, i), typ)
		}
		return ids
	}
	actors := mk("actor", TypeActor, numActors)
	directors := mk("director", TypeDirector, numDirectors)
	producers := mk("producer", TypeProducer, numProducers)
	writers := mk("writer", TypeWriter, numWriters)
	musicians := mk("musician", TypeMusician, numMusicians)
	films := mk("film", TypeFilm, numFilms)
	tvshows := mk("tvshow", TypeTVShow, numTVShows)
	bands := mk("band", TypeBand, numBands)
	albums := mk("album", TypeAlbum, numAlbums)
	songs := mk("song", TypeSong, numSongs)
	characters := mk("character", TypeCharacter, numCharacters)
	genres := mk("genre", TypeGenre, numGenres)
	awards := mk("award", TypeAward, numAwards)
	studios := mk("studio", TypeStudio, numStudios)
	cities := mk("city", TypeCity, numCities)
	countries := mk("country", TypeCountry, numCountries)
	franchises := mk("franchise", TypeFranchise, numFranchises)
	channels := mk("channel", TypeChannel, numChannels)
	festivals := mk("festival", TypeFestival, numFestivals)
	labels := mk("label", TypeLabel, numLabels)

	actorPick := newZipfPicker(rng, actors, opt.ZipfExponent)
	directorPick := newZipfPicker(rng, directors, opt.ZipfExponent)
	producerPick := newZipfPicker(rng, producers, opt.ZipfExponent)
	writerPick := newZipfPicker(rng, writers, opt.ZipfExponent)
	musicianPick := newZipfPicker(rng, musicians, opt.ZipfExponent)

	uniform := func(ids []kb.NodeID) kb.NodeID { return ids[rng.Intn(len(ids))] }

	// Films: cast, crew, metadata.
	for _, f := range films {
		castSize := 2 + rng.Intn(6)
		cast := pickDistinct(actorPick, castSize)
		for _, a := range cast {
			b.edgeIDs(f, a, RelStarring)
		}
		b.edgeIDs(f, directorPick.pick(), RelDirectedBy)
		for i := 0; i < 1+rng.Intn(2); i++ {
			b.edgeIDs(f, producerPick.pick(), RelProducedBy)
		}
		// Star-producers: occasionally a cast member produces too,
		// enabling the Figure 4(c) pattern.
		if rng.Float64() < 0.08 && len(cast) > 0 {
			b.edgeIDs(f, cast[0], RelProducedBy)
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			b.edgeIDs(f, writerPick.pick(), RelWrittenBy)
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			b.edgeIDs(f, uniform(genres), RelHasGenre)
		}
		b.edgeIDs(f, uniform(studios), RelStudioOf)
		if rng.Float64() < 0.25 {
			b.edgeIDs(f, uniform(franchises), RelPartOf)
		}
		if rng.Float64() < 0.10 {
			b.edgeIDs(f, uniform(festivals), RelPremiered)
		}
		if rng.Float64() < 0.15 {
			b.edgeIDs(f, musicianPick.pick(), RelThemeBy)
		}
		if rng.Float64() < 0.06 {
			b.edgeIDs(f, uniform(awards), RelWonAward)
		} else if rng.Float64() < 0.10 {
			b.edgeIDs(f, uniform(awards), RelNominated)
		}
	}
	// Sequels among films in the same franchise-ish window.
	for i := 1; i < len(films); i++ {
		if rng.Float64() < 0.05 {
			b.edgeIDs(films[i], films[rng.Intn(i)], RelSequelOf)
		}
	}

	// TV shows.
	for _, s := range tvshows {
		for i, cnt := 0, 3+rng.Intn(5); i < cnt; i++ {
			b.edgeIDs(s, actorPick.pick(), RelTVStarring)
		}
		b.edgeIDs(s, uniform(channels), RelAirsOn)
		b.edgeIDs(s, uniform(genres), RelHasGenre)
	}

	// Characters bind actors and films one more way.
	for _, c := range characters {
		f := uniform(films)
		b.edgeIDs(c, f, RelCharIn)
		b.edgeIDs(c, actorPick.pick(), RelPlayedBy)
	}

	// Music sub-domain.
	for _, m := range musicians {
		if rng.Float64() < 0.5 {
			b.edgeIDs(m, uniform(bands), RelMemberOf)
		}
	}
	for _, al := range albums {
		b.edgeIDs(al, uniform(bands), RelAlbumBy)
	}
	for _, s := range songs {
		if rng.Float64() < 0.6 {
			b.edgeIDs(s, musicianPick.pick(), RelPerformdBy)
		} else {
			b.edgeIDs(s, uniform(bands), RelPerformdBy)
		}
		b.edgeIDs(s, uniform(albums), RelOnAlbum)
		if rng.Float64() < 0.4 {
			b.edgeIDs(s, uniform(genres), RelHasGenre)
		}
	}
	for _, band := range bands {
		b.edgeIDs(band, uniform(labels), RelSignedTo)
	}

	// People: marriages (biased toward co-stars, which is what makes
	// spouse+costar explanations appear together), partnerships,
	// siblings, awards, birthplaces.
	people := make([]kb.NodeID, 0, numActors+numDirectors+numProducers+numWriters+numMusicians)
	people = append(people, actors...)
	people = append(people, directors...)
	people = append(people, producers...)
	people = append(people, writers...)
	people = append(people, musicians...)

	costars := collectCostars(g, films, b.label(RelStarring))
	numMarriages := len(people) / 8
	for i := 0; i < numMarriages; i++ {
		if len(costars) > 0 && rng.Float64() < 0.4 {
			pair := costars[rng.Intn(len(costars))]
			b.edgeIDs(pair[0], pair[1], RelSpouse)
		} else {
			a, c := uniform(people), uniform(people)
			if a != c {
				b.edgeIDs(a, c, RelSpouse)
			}
		}
	}
	for i := 0; i < len(people)/12; i++ {
		a, c := uniform(people), uniform(people)
		if a != c {
			b.edgeIDs(a, c, RelPartner)
		}
	}
	for i := 0; i < len(people)/15; i++ {
		a, c := uniform(people), uniform(people)
		if a != c {
			b.edgeIDs(a, c, RelSibling)
		}
	}
	for _, p := range people {
		if rng.Float64() < 0.12 {
			b.edgeIDs(p, uniform(awards), RelWonAward)
		} else if rng.Float64() < 0.15 {
			b.edgeIDs(p, uniform(awards), RelNominated)
		}
		if rng.Float64() < 0.7 {
			b.edgeIDs(p, uniform(cities), RelBornIn)
		}
	}
	for _, c := range cities {
		b.edgeIDs(c, uniform(countries), RelLocatedIn)
	}

	return g.Build()
}

// edgeIDs adds an edge between known IDs, registering the label lazily.
// Duplicate edges are silently ignored (AddEdge semantics), which the
// generator relies on.
func (b *builder) edgeIDs(from, to kb.NodeID, rel string) {
	if from == to {
		return
	}
	b.g.MustAddEdge(from, to, b.label(rel))
}

// collectCostars returns actor pairs that co-star in at least one film.
// The list is ordered by film and cast order, hence deterministic.
func collectCostars(g *kb.Builder, films []kb.NodeID, starring kb.LabelID) [][2]kb.NodeID {
	var out [][2]kb.NodeID
	for _, f := range films {
		var cast []kb.NodeID
		for _, he := range g.Neighbors(f) {
			if he.Label == starring && he.Dir == kb.Out {
				cast = append(cast, he.To)
			}
		}
		for i := 0; i < len(cast); i++ {
			for j := i + 1; j < len(cast); j++ {
				out = append(out, [2]kb.NodeID{cast[i], cast[j]})
			}
		}
	}
	return out
}

// zipfPicker samples from a fixed ID slice with Zipf-skewed popularity:
// element i has weight (i+1)^-s.
type zipfPicker struct {
	rng    *rand.Rand
	ids    []kb.NodeID
	prefix []float64 // cumulative weights
}

func newZipfPicker(rng *rand.Rand, ids []kb.NodeID, s float64) *zipfPicker {
	prefix := make([]float64, len(ids))
	sum := 0.0
	for i := range ids {
		sum += pow(float64(i+1), -s)
		prefix[i] = sum
	}
	return &zipfPicker{rng: rng, ids: ids, prefix: prefix}
}

func (z *zipfPicker) pick() kb.NodeID {
	total := z.prefix[len(z.prefix)-1]
	x := z.rng.Float64() * total
	lo, hi := 0, len(z.prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.prefix[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return z.ids[lo]
}

// pickDistinct draws up to k distinct IDs from the picker (best effort:
// it retries a bounded number of times, so heavily skewed small
// populations may return fewer).
func pickDistinct(z *zipfPicker, k int) []kb.NodeID {
	seen := make(map[kb.NodeID]struct{}, k)
	out := make([]kb.NodeID, 0, k)
	for attempts := 0; len(out) < k && attempts < 8*k; attempts++ {
		id := z.pick()
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
