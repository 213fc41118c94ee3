// Package relation implements the single-relation storage substrate the
// CFD-repair algorithms operate on: string-valued tuples with per-attribute
// confidence weights, SQL-style nulls, active domains, hash indices and a
// CSV codec.
//
// The paper assumes a schema with a single relation R (§2); multi-relation
// databases are cleaned one relation at a time since CFDs address a single
// relation only.
package relation

// Value is an attribute value: either a string constant or SQL null.
// The zero Value is the empty string (not null).
type Value struct {
	Str  string
	Null bool
}

// String returns the constant, or "␀" for null (display only).
func (v Value) String() string {
	if v.Null {
		return "␀"
	}
	return v.Str
}

// S returns a non-null string value.
func S(s string) Value { return Value{Str: s} }

// NullValue is the SQL null. The paper (§3.1) uses null when the value of
// an attribute is unknown or cannot be made certain.
var NullValue = Value{Null: true}

// StrictEq reports whether two values are identical: both null, or both
// the same non-null constant. Used for counting differences (dif) and for
// equality of stored data, where null does NOT match everything.
func StrictEq(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	return a.Str == b.Str
}

// StrictEqVals reports StrictEq over parallel slices.
func StrictEqVals(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !StrictEq(a[i], b[i]) {
			return false
		}
	}
	return true
}
