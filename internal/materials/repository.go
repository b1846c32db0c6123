package materials

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"csmaterials/internal/matrix"
	"csmaterials/internal/ontology"
)

// Repository is the in-memory CS Materials store: courses, their
// materials, and an index of materials by ID. It validates every
// classification against the guidelines it was created with.
type Repository struct {
	guidelines []*ontology.Guideline
	courses    map[string]*Course
	order      []string // course insertion order, for deterministic listings
	byMaterial map[string]*Material
}

// NewRepository creates an empty repository validating against the given
// guidelines (typically CS2013 and PDC12).
func NewRepository(guidelines ...*ontology.Guideline) *Repository {
	if len(guidelines) == 0 {
		panic("materials: NewRepository needs at least one guideline")
	}
	return &Repository{
		guidelines: guidelines,
		courses:    map[string]*Course{},
		byMaterial: map[string]*Material{},
	}
}

// Reserve sizes the material index for n materials before a bulk
// load into an empty repository, so indexing them never regrows it.
func (r *Repository) Reserve(n int) {
	if len(r.byMaterial) == 0 {
		r.byMaterial = make(map[string]*Material, n)
	}
}

// KnownTag reports whether id exists in any of the repository's
// guidelines.
func (r *Repository) KnownTag(id string) bool {
	for _, g := range r.guidelines {
		if g.Lookup(id) != nil {
			return true
		}
	}
	return false
}

// AddCourse validates and stores a course. Every material tag must exist
// in one of the repository's guidelines; material IDs must be globally
// unique.
func (r *Repository) AddCourse(c *Course) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, dup := r.courses[c.ID]; dup {
		return fmt.Errorf("materials: duplicate course ID %q", c.ID)
	}
	for _, m := range c.Materials {
		if _, dup := r.byMaterial[m.ID]; dup {
			return fmt.Errorf("materials: material ID %q already exists in another course", m.ID)
		}
		for _, tag := range m.Tags {
			if !r.KnownTag(tag) {
				return fmt.Errorf("materials: material %q references unknown curriculum tag %q", m.ID, tag)
			}
		}
	}
	r.indexCourse(c)
	return nil
}

// AdoptCourse stores a course whose content was already validated by
// this package — the incremental-ingest fast path. A delta ingest
// (dataset.Registry.Apply) derives most courses unchanged from an
// already-validated snapshot; re-running per-tag guideline lookups for
// them would make delta cost proportional to the corpus. Only index
// integrity (unique course and material IDs) is enforced; the caller
// is responsible for the course having passed AddCourse-level
// validation in a previous repository.
func (r *Repository) AdoptCourse(c *Course) error {
	if _, dup := r.courses[c.ID]; dup {
		return fmt.Errorf("materials: duplicate course ID %q", c.ID)
	}
	for _, m := range c.Materials {
		if _, dup := r.byMaterial[m.ID]; dup {
			return fmt.Errorf("materials: material ID %q already exists in another course", m.ID)
		}
	}
	r.indexCourse(c)
	return nil
}

// indexCourse registers a validated course in the lookup indexes.
func (r *Repository) indexCourse(c *Course) {
	r.courses[c.ID] = c
	r.order = append(r.order, c.ID)
	for _, m := range c.Materials {
		r.byMaterial[m.ID] = m
	}
}

// Course returns the course with the given ID, or nil.
func (r *Repository) Course(id string) *Course { return r.courses[id] }

// Courses returns all courses in insertion order.
func (r *Repository) Courses() []*Course {
	out := make([]*Course, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.courses[id])
	}
	return out
}

// CoursesInGroup returns the courses whose primary or secondary group is
// g, in insertion order.
func (r *Repository) CoursesInGroup(g CourseGroup) []*Course {
	var out []*Course
	for _, c := range r.Courses() {
		if c.HasGroup(g) {
			out = append(out, c)
		}
	}
	return out
}

// Material returns the material with the given ID, or nil.
func (r *Repository) Material(id string) *Material { return r.byMaterial[id] }

// Materials returns every material sorted by ID.
func (r *Repository) Materials() []*Material {
	out := make([]*Material, 0, len(r.byMaterial))
	for _, m := range r.byMaterial {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MaterialsWithTag returns the materials classified against the exact
// tag, by ID, once per time the tag appears on each. It scans: no
// serving path asks, and a tag index would cost every ingest and delta
// an insert per material tag.
func (r *Repository) MaterialsWithTag(tag string) []*Material {
	var out []*Material
	for _, m := range r.Materials() {
		for _, t := range m.Tags {
			if t == tag {
				out = append(out, m)
			}
		}
	}
	return out
}

// NumMaterials returns the total number of materials.
func (r *Repository) NumMaterials() int { return len(r.byMaterial) }

// CourseMatrix builds the paper's analysis input: a 0-1 matrix A with one
// row per given course and one column per curriculum tag that appears in
// at least one of them. It returns the matrix together with the column
// tag IDs (sorted) so entries can be interpreted.
func CourseMatrix(courses []*Course) (*matrix.Dense, []string) {
	if len(courses) == 0 {
		panic("materials: CourseMatrix with no courses")
	}
	universe := map[string]bool{}
	sets := make([]map[string]bool, len(courses))
	for i, c := range courses {
		sets[i] = c.TagSet()
		for t := range sets[i] {
			universe[t] = true
		}
	}
	cols := make([]string, 0, len(universe))
	for t := range universe {
		cols = append(cols, t)
	}
	sort.Strings(cols)
	colIdx := make(map[string]int, len(cols))
	for j, t := range cols {
		colIdx[t] = j
	}
	a := matrix.New(len(courses), len(cols))
	for i := range courses {
		for t := range sets[i] {
			a.Set(i, colIdx[t], 1)
		}
	}
	return a, cols
}

// SaveJSON writes the repository's courses as a JSON document.
func (r *Repository) SaveJSON(w io.Writer) error {
	doc := struct {
		Courses []*Course `json:"courses"`
	}{Courses: r.Courses()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadJSON reads courses from a JSON document produced by SaveJSON and
// adds them to the repository, validating each.
func (r *Repository) LoadJSON(rd io.Reader) error {
	var doc struct {
		Courses []*Course `json:"courses"`
	}
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return fmt.Errorf("materials: decoding JSON: %w", err)
	}
	for _, c := range doc.Courses {
		if err := r.AddCourse(c); err != nil {
			return err
		}
	}
	return nil
}
