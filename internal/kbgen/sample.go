// Package kbgen builds knowledge bases for REX: a small curated
// entertainment graph mirroring the paper's running example (Figure 3),
// and a scalable synthetic generator that substitutes for the paper's
// DBpedia entertainment extraction (200K entities, 1.3M primary
// relationships) — see DESIGN.md for the substitution rationale.
package kbgen

import "rex/internal/kb"

// Entity type names used by both the sample and the generator.
const (
	TypeActor     = "actor"
	TypeDirector  = "director"
	TypeProducer  = "producer"
	TypeWriter    = "writer"
	TypeMusician  = "musician"
	TypeFilm      = "film"
	TypeTVShow    = "tvshow"
	TypeBand      = "band"
	TypeAlbum     = "album"
	TypeSong      = "song"
	TypeGenre     = "genre"
	TypeAward     = "award"
	TypeStudio    = "studio"
	TypeCity      = "city"
	TypeCountry   = "country"
	TypeCharacter = "character"
	TypeFranchise = "franchise"
	TypeChannel   = "channel"
	TypeFestival  = "festival"
	TypeLabel     = "label"
)

// Relationship label names. Directedness is registered on first use and
// must stay consistent everywhere.
const (
	RelStarring   = "starring"      // film → actor, directed
	RelTVStarring = "tv_starring"   // tvshow → actor, directed
	RelDirectedBy = "directed_by"   // film → director, directed
	RelProducedBy = "produced_by"   // film → producer/actor, directed
	RelWrittenBy  = "written_by"    // film → writer, directed
	RelSpouse     = "spouse"        // person — person, undirected
	RelPartner    = "partner"       // person — person, undirected
	RelSibling    = "sibling"       // person — person, undirected
	RelMemberOf   = "member_of"     // musician → band, directed
	RelPerformdBy = "performed_by"  // song → musician/band, directed
	RelOnAlbum    = "on_album"      // song → album, directed
	RelAlbumBy    = "album_by"      // album → band/musician, directed
	RelHasGenre   = "has_genre"     // film/song → genre, directed
	RelWonAward   = "won_award"     // person/film → award, directed
	RelNominated  = "nominated_for" // person/film → award, directed
	RelStudioOf   = "studio"        // film → studio, directed
	RelBornIn     = "born_in"       // person → city, directed
	RelLocatedIn  = "located_in"    // city → country, directed
	RelCharIn     = "character_in"  // character → film, directed
	RelPlayedBy   = "played_by"     // character → actor, directed
	RelPartOf     = "part_of"       // film → franchise, directed
	RelSequelOf   = "sequel_of"     // film → film, directed
	RelAirsOn     = "airs_on"       // tvshow → channel, directed
	RelSignedTo   = "signed_to"     // band → label, directed
	RelThemeBy    = "theme_by"      // film → musician, directed
	RelPremiered  = "premiered_at"  // film → festival, directed
)

// relDirected maps every relationship label to its directedness.
var relDirected = map[string]bool{
	RelStarring: true, RelTVStarring: true, RelDirectedBy: true,
	RelProducedBy: true, RelWrittenBy: true,
	RelSpouse: false, RelPartner: false, RelSibling: false,
	RelMemberOf: true, RelPerformdBy: true, RelOnAlbum: true,
	RelAlbumBy: true, RelHasGenre: true, RelWonAward: true,
	RelNominated: true, RelStudioOf: true, RelBornIn: true,
	RelLocatedIn: true, RelCharIn: true, RelPlayedBy: true,
	RelPartOf: true, RelSequelOf: true, RelAirsOn: true,
	RelSignedTo: true, RelThemeBy: true, RelPremiered: true,
}

// Sample builds the curated entertainment knowledge base used throughout
// the tests and examples. It mirrors the paper's running example: the
// Brad Pitt / Angelina Jolie / Tom Cruise / Kate Winslet neighbourhood of
// the Yahoo! entertainment graph (Figures 3, 4 and 6), extended with
// enough co-starring volume that the distributional examples (Example 7)
// are non-trivial.
func Sample() *kb.Graph {
	g := kb.NewBuilder()
	b := builder{g: g, labels: map[string]kb.LabelID{}}

	// People.
	actors := []string{
		"brad_pitt", "angelina_jolie", "jennifer_aniston", "tom_cruise",
		"nicole_kidman", "penelope_cruz", "will_smith", "jada_pinkett_smith",
		"kate_winslet", "leonardo_dicaprio", "mel_gibson", "helen_hunt",
		"julia_roberts", "george_clooney", "matt_damon", "catherine_zeta_jones",
		"michael_douglas", "cameron_diaz", "kathleen_quinlan", "eric_bana",
		"orlando_bloom", "diane_kruger", "kirsten_dunst", "christian_bale",
		"russell_crowe", "paul_bettany", "jon_voight", "eva_mendes",
		"sophie_marceau", "rene_russo", "jack_nicholson", "greg_kinnear",
		"tom_hanks", "bill_paxton", "jamie_foxx",
	}
	for _, a := range actors {
		b.node(a, TypeActor)
	}
	directors := []string{
		"sam_mendes", "james_cameron", "doug_liman", "steven_soderbergh",
		"gore_verbinski", "wolfgang_petersen", "neil_jordan", "cameron_crowe",
		"ron_howard", "nancy_meyers", "brian_de_palma", "michael_mann",
		"andy_tennant", "mel_gibson_dir", "james_l_brooks",
		"robert_zemeckis", "jan_de_bont",
	}
	for _, d := range directors {
		b.node(d, TypeDirector)
	}
	b.node("jerry_bruckheimer", TypeProducer)
	b.node("brian_grazer", TypeProducer)
	b.node("dede_gardner", TypeProducer)

	// Films with casts (first element) and directors.
	films := []struct {
		name     string
		cast     []string
		director string
	}{
		{"mr_and_mrs_smith", []string{"brad_pitt", "angelina_jolie"}, "doug_liman"},
		{"interview_with_the_vampire", []string{"brad_pitt", "tom_cruise", "kirsten_dunst", "christian_bale"}, "neil_jordan"},
		{"oceans_eleven", []string{"brad_pitt", "george_clooney", "matt_damon", "julia_roberts"}, "steven_soderbergh"},
		{"oceans_twelve", []string{"brad_pitt", "george_clooney", "matt_damon", "julia_roberts", "catherine_zeta_jones"}, "steven_soderbergh"},
		{"the_mexican", []string{"brad_pitt", "julia_roberts"}, "gore_verbinski"},
		{"troy", []string{"brad_pitt", "eric_bana", "orlando_bloom", "diane_kruger"}, "wolfgang_petersen"},
		{"titanic", []string{"kate_winslet", "leonardo_dicaprio", "kathleen_quinlan"}, "james_cameron"},
		{"revolutionary_road", []string{"kate_winslet", "leonardo_dicaprio", "kathleen_quinlan"}, "sam_mendes"},
		{"vanilla_sky", []string{"tom_cruise", "penelope_cruz", "cameron_diaz"}, "cameron_crowe"},
		{"far_and_away", []string{"tom_cruise", "nicole_kidman"}, "ron_howard"},
		{"what_women_want", []string{"mel_gibson", "helen_hunt"}, "nancy_meyers"},
		{"a_mighty_heart", []string{"angelina_jolie"}, "doug_liman"},
		// P5 neighbourhood (mel_gibson, helen_hunt): enough surrounding
		// structure that the pair has a meaningful explanation mix.
		{"braveheart", []string{"mel_gibson", "sophie_marceau"}, "mel_gibson_dir"},
		{"ransom", []string{"mel_gibson", "rene_russo"}, "ron_howard"},
		{"as_good_as_it_gets", []string{"helen_hunt", "jack_nicholson", "greg_kinnear"}, "james_l_brooks"},
		{"cast_away", []string{"helen_hunt", "tom_hanks"}, "robert_zemeckis"},
		{"twister", []string{"helen_hunt", "bill_paxton"}, "jan_de_bont"},
		// Bridge structure for the P3 study pair (tom_cruise, will_smith):
		// Jon Voight co-stars with Tom Cruise in Mission: Impossible and
		// with Will Smith in Ali, and awards provide a second route.
		{"mission_impossible", []string{"tom_cruise", "jon_voight"}, "brian_de_palma"},
		{"ali", []string{"will_smith", "jon_voight", "jada_pinkett_smith", "jamie_foxx"}, "michael_mann"},
		{"hitch", []string{"will_smith", "eva_mendes"}, "andy_tennant"},
		{"collateral", []string{"tom_cruise", "jamie_foxx"}, "michael_mann"},
	}
	for _, f := range films {
		b.node(f.name, TypeFilm)
		for _, a := range f.cast {
			b.edge(f.name, a, RelStarring)
		}
		b.edge(f.name, f.director, RelDirectedBy)
	}

	// Producing: Brad Pitt produced A Mighty Heart (with Dede Gardner)
	// and co-produced Mr. & Mrs. Smith in this sample — this realises the
	// Figure 4(c) pattern (starring + producing the same film).
	b.edge("a_mighty_heart", "brad_pitt", RelProducedBy)
	b.edge("a_mighty_heart", "dede_gardner", RelProducedBy)
	b.edge("mr_and_mrs_smith", "brad_pitt", RelProducedBy)
	b.edge("oceans_eleven", "jerry_bruckheimer", RelProducedBy)
	b.edge("far_and_away", "brian_grazer", RelProducedBy)

	// Marriages and partnerships (Figure 4(a)).
	b.edge("brad_pitt", "angelina_jolie", RelSpouse)
	b.edge("brad_pitt", "jennifer_aniston", RelSpouse)
	b.edge("tom_cruise", "nicole_kidman", RelSpouse)
	b.edge("will_smith", "jada_pinkett_smith", RelSpouse)
	b.edge("kate_winslet", "sam_mendes", RelSpouse)
	b.edge("michael_douglas", "catherine_zeta_jones", RelSpouse)
	b.edge("angelina_jolie", "jon_voight", RelSibling) // father in reality; family edge for tests

	// Genres and awards for a little breadth.
	for _, gn := range []string{"action", "drama", "romance", "crime"} {
		b.node(gn, TypeGenre)
	}
	b.edge("mr_and_mrs_smith", "action", RelHasGenre)
	b.edge("troy", "action", RelHasGenre)
	b.edge("titanic", "romance", RelHasGenre)
	b.edge("titanic", "drama", RelHasGenre)
	b.edge("revolutionary_road", "drama", RelHasGenre)
	b.edge("oceans_eleven", "crime", RelHasGenre)
	b.edge("oceans_twelve", "crime", RelHasGenre)

	b.node("academy_award", TypeAward)
	b.node("golden_globe", TypeAward)
	b.edge("kate_winslet", "academy_award", RelWonAward)
	b.edge("leonardo_dicaprio", "academy_award", RelWonAward)
	b.edge("titanic", "academy_award", RelWonAward)
	b.edge("brad_pitt", "golden_globe", RelWonAward)
	b.edge("angelina_jolie", "golden_globe", RelWonAward)
	b.edge("tom_cruise", "golden_globe", RelWonAward)
	b.edge("helen_hunt", "academy_award", RelWonAward)
	b.edge("helen_hunt", "golden_globe", RelWonAward)
	b.edge("mel_gibson", "golden_globe", RelWonAward)
	b.edge("mel_gibson", "academy_award", RelWonAward) // for Braveheart
	b.edge("braveheart", "academy_award", RelWonAward)
	b.edge("as_good_as_it_gets", "golden_globe", RelWonAward)
	b.edge("jack_nicholson", "academy_award", RelWonAward)
	b.edge("tom_hanks", "academy_award", RelWonAward)
	b.edge("will_smith", "golden_globe", RelWonAward)
	b.edge("what_women_want", "romance", RelHasGenre)
	b.edge("as_good_as_it_gets", "romance", RelHasGenre)
	b.edge("cast_away", "drama", RelHasGenre)
	b.edge("braveheart", "drama", RelHasGenre)
	b.edge("ransom", "crime", RelHasGenre)

	b.edge("oceans_twelve", "oceans_eleven", RelSequelOf)

	return g.Build()
}

// builder keeps label registration terse during static construction.
type builder struct {
	g      *kb.Builder
	labels map[string]kb.LabelID
}

func (b *builder) node(name, typ string) kb.NodeID { return b.g.AddNode(name, typ) }

func (b *builder) label(name string) kb.LabelID {
	if id, ok := b.labels[name]; ok {
		return id
	}
	directed, ok := relDirected[name]
	if !ok {
		panic("kbgen: unregistered relationship label " + name)
	}
	id := b.g.MustLabel(name, directed)
	b.labels[name] = id
	return id
}

func (b *builder) edge(from, to, rel string) {
	f := b.g.NodeByName(from)
	t := b.g.NodeByName(to)
	if f == kb.InvalidNode || t == kb.InvalidNode {
		panic("kbgen: edge references unknown node " + from + " / " + to)
	}
	b.g.MustAddEdge(f, t, b.label(rel))
}
