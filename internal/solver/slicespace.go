package solver

import "fmt"

// sliceSpace adapts any Operator to a VectorSpace over plain global slices,
// so every solve runs the one recurrence per method (cgProgram, biProgram)
// whether or not the operator keeps its own layout. Inner products go
// through the operator's Reducer when it has one, else the left-to-right
// dot; the fused ops update elementwise first and reduce after, so a solve
// takes exactly the operator's own reductions over exactly the updated
// vectors.
type sliceSpace struct {
	Operator
	red  Reducer // nil: left-to-right dot
	vecs [][]float64
	pre  func(z, r []float64) // nil: identity
}

func newSliceSpace(a Operator) *sliceSpace {
	s := &sliceSpace{Operator: a}
	s.red, _ = a.(Reducer)
	return s
}

func (s *sliceSpace) dot(a, b []float64) float64 {
	if s.red != nil {
		return s.red.Dot(a, b)
	}
	return dot(a, b)
}

// Reserve creates the slots; vec allocates a slot's storage on first use,
// so the two slots LoadVec2 fills never allocate.
func (s *sliceSpace) Reserve(n int) {
	for len(s.vecs) < n {
		s.vecs = append(s.vecs, nil)
	}
}

func (s *sliceSpace) vec(v Vec) []float64 {
	if s.vecs[v] == nil {
		s.vecs[v] = make([]float64, s.Size())
	}
	return s.vecs[v]
}

// LoadVec2 aliases the caller's slices instead of copying them: a solve
// loads x, which it writes back through StoreVec anyway, and b, which it
// only reads. A sliceSpace lives for one solve, so the alias never
// outlives the call.
func (s *sliceSpace) LoadVec2(v1 Vec, src1 []float64, v2 Vec, src2 []float64) {
	s.vecs[v1], s.vecs[v2] = src1, src2
}

func (s *sliceSpace) StoreVec(dst []float64, v Vec) { copy(dst, s.vec(v)) }

// SetPrecondDiag installs JacobiPrecond(diag); nil selects the identity.
func (s *sliceSpace) SetPrecondDiag(diag []float64) error {
	if diag == nil {
		s.pre = nil
		return nil
	}
	if len(diag) != s.Size() {
		return fmt.Errorf("solver: preconditioner diagonal has %d entries, operator %d", len(diag), s.Size())
	}
	pre, err := JacobiPrecond(diag)
	if err != nil {
		return err
	}
	s.pre = pre
	return nil
}

// SetPrecond implements ResidentPrecond through the operator's
// PrecondFactory.
func (s *sliceSpace) SetPrecond(kind PrecondKind, diag []float64) error {
	f, ok := s.Operator.(PrecondFactory)
	if !ok {
		return fmt.Errorf("solver: operator %T cannot build the %q preconditioner (no PrecondFactory)", s.Operator, kind)
	}
	pre, err := f.MakePrecond(kind, diag)
	if err != nil {
		return err
	}
	s.pre = pre
	return nil
}

func (s *sliceSpace) CopyVec(dst, src Vec) { copy(s.vec(dst), s.vec(src)) }

func (s *sliceSpace) DotVec(a, b Vec) float64 { return s.dot(s.vec(a), s.vec(b)) }

func (s *sliceSpace) Dot2Vec(a, x, y Vec) (float64, float64) {
	return s.dot(s.vec(a), s.vec(x)), s.dot(s.vec(a), s.vec(y))
}

func (s *sliceSpace) ApplyVec(dst, x Vec) error { return s.Apply(s.vec(dst), s.vec(x)) }

func (s *sliceSpace) ApplyDotVec(dst, x, w Vec) (float64, error) {
	if err := s.Apply(s.vec(dst), s.vec(x)); err != nil {
		return 0, err
	}
	return s.dot(s.vec(w), s.vec(dst)), nil
}

func (s *sliceSpace) AxpyVec(y Vec, alpha float64, x Vec) { axpy(s.vec(y), alpha, s.vec(x)) }

func (s *sliceSpace) Axpy2Vec(y Vec, alpha float64, x Vec, beta float64, z Vec) {
	yy, xx, zz := s.vec(y), s.vec(x), s.vec(z)
	for i := range yy {
		yy[i] += alpha*xx[i] + beta*zz[i]
	}
}

func (s *sliceSpace) XpbyVec(y Vec, beta float64, x Vec) {
	yy, xx := s.vec(y), s.vec(x)
	for i := range yy {
		yy[i] = xx[i] + beta*yy[i]
	}
}

func (s *sliceSpace) SubAxpyDotVec(dst, a Vec, alpha float64, b Vec) float64 {
	dd, aa, bb := s.vec(dst), s.vec(a), s.vec(b)
	for i := range dd {
		dd[i] = aa[i] - alpha*bb[i]
	}
	return s.dot(dd, dd)
}

func (s *sliceSpace) CGStepVec(x Vec, alpha float64, p, r, ap Vec) float64 {
	axpy(s.vec(x), alpha, s.vec(p))
	axpy(s.vec(r), -alpha, s.vec(ap))
	return s.dot(s.vec(r), s.vec(r))
}

func (s *sliceSpace) BicgPVec(p, r, v Vec, beta, omega float64) {
	pp, rr, vv := s.vec(p), s.vec(r), s.vec(v)
	for i := range pp {
		pp[i] = rr[i] + beta*(pp[i]-omega*vv[i])
	}
}

func (s *sliceSpace) PrecondVec(z, r Vec) {
	if s.pre == nil {
		copy(s.vec(z), s.vec(r))
		return
	}
	s.pre(s.vec(z), s.vec(r))
}

func (s *sliceSpace) PrecondDotVec(z, r Vec) float64 {
	s.PrecondVec(z, r)
	return s.dot(s.vec(r), s.vec(z))
}

var (
	_ VectorSpace     = (*sliceSpace)(nil)
	_ ResidentPrecond = (*sliceSpace)(nil)
)
