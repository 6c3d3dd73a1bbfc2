package jsonenc

import (
	"strconv"
	"strings"
)

type kind uint8

const (
	kStr   kind = iota // string
	kName              // string, read interned
	kInt               // int
	kInt64             // int64
	kBool              // bool
	kSub               // anything else, through a Codec
)

// A Field is one member of T: its key and flags, and a typed accessor that
// returns the member's address in a T.
type Field[T any] struct {
	Key  string // the json tag's name, or the Go name in an untagged type
	Omit bool   // omitempty: "", 0, false, an empty slice or a nil pointer is left out
	// Null reads a null as the zero value, a nil slice or pointer; elsewhere
	// null is corrupt. A nil slice is written null wherever it is written.
	Null bool

	kind kind
	key  string // `,"Key":`
	str  func(*T) *string
	num  func(*T) *int
	i64  func(*T) *int64
	flag func(*T) *bool
	sub  member[T]
}

// row completes f from tag: the key, then ",omitempty" and ",null" as they
// apply.
func row[T any](tag string, k kind, f Field[T]) Field[T] {
	key, opts, _ := strings.Cut(tag, ",")
	f.Key, f.kind, f.key = key, k, `,"`+key+`":`
	f.Omit, f.Null = strings.Contains(opts, "omitempty"), strings.Contains(opts, "null")
	return f
}

func Str[T any](tag string, at func(*T) *string) Field[T]  { return row(tag, kStr, Field[T]{str: at}) }
func Name[T any](tag string, at func(*T) *string) Field[T] { return row(tag, kName, Field[T]{str: at}) }
func Int[T any](tag string, at func(*T) *int) Field[T]     { return row(tag, kInt, Field[T]{num: at}) }
func Bool[T any](tag string, at func(*T) *bool) Field[T]   { return row(tag, kBool, Field[T]{flag: at}) }
func Int64[T any](tag string, at func(*T) *int64) Field[T] {
	return row(tag, kInt64, Field[T]{i64: at})
}

// Sub is a member of any other type V, which c writes and reads.
func Sub[T, V any](tag string, at func(*T) *V, c Codec[V]) Field[T] {
	return row(tag, kSub, Field[T]{sub: sub[T, V]{at, c}})
}

// put appends f's key, with its comma unless b ends in the object's '{'.
func (f *Field[T]) put(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '{' {
		return append(b, f.key[1:]...)
	}
	return append(b, f.key...)
}

// A Codec writes and reads a V: a record's Table, an Array of records,
// Strings, Ints, a Float, a Pair, or a Ptr to one of them.
type Codec[V any] interface {
	Append(b []byte, v *V) []byte
	Read(s *Scanner, v *V)
	empty(v *V) bool // omitempty leaves v out
}

// member is a kSub row's accessor and codec, with the member's type bound.
type member[T any] interface {
	append(b []byte, f *Field[T], v *T) []byte
	read(s *Scanner, v *T)
}

type sub[T, V any] struct {
	at func(*T) *V
	c  Codec[V]
}

func (m sub[T, V]) append(b []byte, f *Field[T], v *T) []byte {
	if p := m.at(v); !f.Omit || !m.c.empty(p) {
		b = m.c.Append(f.put(b), p)
	}
	return b
}

func (m sub[T, V]) read(s *Scanner, v *T) { m.c.Read(s, m.at(v)) }

type Table[T any] []Field[T]

func (t Table[T]) Append(b []byte, v *T) []byte {
	return append(t.AppendMembers(append(b, '{'), v), '}')
}

// AppendMembers appends v's members in table order, each after a comma unless
// it opens the object, and leaves out the empty ones a row omits.
func (t Table[T]) AppendMembers(b []byte, v *T) []byte {
	for i := range t {
		f := &t[i]
		switch f.kind {
		case kStr, kName:
			if p := *f.str(v); !f.Omit || p != "" {
				b = AppendString(f.put(b), p)
			}
		case kInt:
			if p := *f.num(v); !f.Omit || p != 0 {
				b = strconv.AppendInt(f.put(b), int64(p), 10)
			}
		case kInt64:
			if p := *f.i64(v); !f.Omit || p != 0 {
				b = strconv.AppendInt(f.put(b), p, 10)
			}
		case kBool:
			if p := *f.flag(v); !f.Omit || p {
				b = strconv.AppendBool(f.put(b), p)
			}
		default:
			b = f.sub.append(b, f, v)
		}
	}
	return b
}

func (t Table[T]) Read(s *Scanner, v *T) {
	s.Expect('{')
	t.ReadMembers(s, v)
	s.Expect('}')
}

// ReadMembers reads an object's members into v: each optional, in table
// order, at most once. A member not read is left as it was.
func (t Table[T]) ReadMembers(s *Scanner, v *T) {
	key := s.key()
	for i := 0; key != nil && i < len(t); i++ {
		f := &t[i]
		if len(f.Key) != len(key) || f.Key[0] != key[0] || f.Key != string(key) {
			continue
		}
		s.i = s.member
		if !f.Null || !s.word("null") {
			switch f.kind {
			case kStr:
				*f.str(v) = s.str()
			case kName:
				*f.str(v) = s.name()
			case kInt:
				*f.num(v) = s.num()
			case kInt64:
				*f.i64(v) = s.int()
			case kBool:
				*f.flag(v) = s.bool()
			default:
				f.sub.read(s, v)
			}
		}
		key = s.key()
	}
}

func (Table[T]) empty(*T) bool { return false }

// Array codes a slice of records. A nil slice is written null; an array is
// read onto the end of the slice there, and never as nil.
type Array[T any] Table[T]

func (a Array[T]) Append(b []byte, v *[]T) []byte { return AppendElems(b, *v, Table[T](a).Append) }
func (a Array[T]) Read(s *Scanner, v *[]T)        { *v = array(s, *v, func(e *T) { Table[T](a).Read(s, e) }) }
func (Array[T]) empty(v *[]T) bool                { return len(*v) == 0 }

// Strings codes a slice of strings as Array does records, read interned when
// Intern is set.
type Strings[S ~string] struct{ Intern bool }

func (Strings[S]) Append(b []byte, v *[]S) []byte { return AppendStrings(b, *v) }
func (Strings[S]) empty(v *[]S) bool              { return len(*v) == 0 }
func (c Strings[S]) Read(s *Scanner, v *[]S) {
	*v = array(s, *v, func(e *S) {
		if c.Intern {
			*e = S(s.name())
		} else {
			*e = S(s.str())
		}
	})
}

// Ints codes a slice of ints as Array does records.
type Ints[N ~int] struct{}

func (Ints[N]) Read(s *Scanner, v *[]N) { *v = array(s, *v, func(n *N) { *n = N(s.num()) }) }
func (Ints[N]) empty(v *[]N) bool       { return len(*v) == 0 }
func (Ints[N]) Append(b []byte, v *[]N) []byte {
	return AppendElems(b, *v, func(b []byte, n *N) []byte { return strconv.AppendInt(b, int64(*n), 10) })
}

// Ptr codes a pointer to what To codes, read into a new V. A row holding one
// must omit it when empty: a nil pointer is not written.
type Ptr[V any] struct{ To Codec[V] }

func (p Ptr[V]) Append(b []byte, v **V) []byte { return p.To.Append(b, *v) }
func (Ptr[V]) empty(v **V) bool                { return *v == nil }
func (p Ptr[V]) Read(s *Scanner, v **V) {
	*v = new(V)
	p.To.Read(s, *v)
}

// Float codes a float64; Pair codes a [2]string of names.
type (
	Float struct{}
	Pair  struct{}
)

func (Float) Append(b []byte, v *float64) []byte  { return AppendFloat(b, *v) }
func (Float) Read(s *Scanner, v *float64)         { *v = s.float() }
func (Float) empty(v *float64) bool               { return *v == 0 }
func (Pair) Append(b []byte, v *[2]string) []byte { return AppendStrings(b, v[:]) }
func (Pair) Read(s *Scanner, v *[2]string)        { s.pair(v) }
func (Pair) empty(*[2]string) bool                { return false }
