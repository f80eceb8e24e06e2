//! Data-type descriptors and layout computation.
//!
//! The original MCR obtains type information from an LLVM link-time pass and
//! stores it as in-memory *data type tags*. Here the same information is
//! described explicitly with [`TypeDesc`] values held in a [`TypeRegistry`].
//! Every simulated program version registers the types of its global
//! variables and heap allocations; the registry is what MCR's precise tracing
//! consults to locate pointers, and what the transfer engine diffs across
//! versions to compute type transformations.
//!
//! Types that C cannot describe unambiguously — unions, `char` buffers,
//! pointer-sized integers, and allocations from uninstrumented allocators —
//! are modelled as *opaque* layout elements, which is precisely what forces
//! the conservative half of mutable tracing.
//!
//! Like the link-time pass's tags, a type's layout is static metadata: the
//! registry derives every type's [`TypeLayout`] (size, alignment, struct
//! field layout and flattened [`LayoutElement`]s) once, on the first layout
//! query, and hands out borrows of it from then on. [`TypeRegistry::register`]
//! is the registry's only mutator and drops the derived layouts, so a field
//! that names a not-yet-registered id resolves against the registry as it is
//! at query time.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Identifier of a type within a [`TypeRegistry`].
///
/// The numeric value doubles as the in-band allocator tag
/// ([`mcr_procsim::TypeTag`]) so that chunk headers written by the simulated
/// allocator can be resolved back to a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u64);

/// Structural description of a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    /// A plain integer of the given byte width (1, 2, 4 or 8) that never
    /// holds a pointer.
    Int {
        /// Width in bytes.
        size: u64,
    },
    /// A pointer-sized integer that *may* hold a pointer (e.g. `intptr_t`,
    /// encoded pointers). Treated as opaque by precise tracing.
    PtrSizedInt,
    /// A pointer to an object of the given type.
    Pointer {
        /// Pointee type.
        to: TypeId,
    },
    /// A fixed-size `char` buffer; opaque (may hide pointers, Listing 1's
    /// `char b[8]`).
    CharArray {
        /// Length in bytes.
        len: u64,
    },
    /// An array of `len` elements of a known type.
    Array {
        /// Element type.
        elem: TypeId,
        /// Element count.
        len: u64,
    },
    /// A struct with named fields laid out with natural alignment.
    Struct {
        /// Fields in declaration order.
        fields: Vec<Field>,
    },
    /// A union of variants; opaque to precise tracing.
    Union {
        /// The variants sharing the storage.
        variants: Vec<Field>,
    },
    /// A blob with unknown layout (uninstrumented library data, custom
    /// allocator internals).
    Opaque {
        /// Size in bytes.
        size: u64,
    },
}

/// A named member of a struct or union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (used to match fields across versions).
    pub name: String,
    /// Field type.
    pub ty: TypeId,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: TypeId) -> Self {
        Field { name: name.into(), ty }
    }
}

/// A registered type: identifier, name and structure.
///
/// The name is interned as an `Arc<str>` so the transfer engine's hot path
/// can carry type names around without copying the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDesc {
    /// Identifier within the registry.
    pub id: TypeId,
    /// Type name (used to pair types across program versions).
    pub name: Arc<str>,
    /// Structure.
    pub kind: TypeKind,
}

/// One element of a type's flattened layout, as consumed by mutable tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutElement {
    /// A pointer slot at `offset`, pointing to an object of type `to`.
    Pointer {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Pointee type.
        to: TypeId,
    },
    /// Plain (pointer-free) data that can be copied verbatim.
    Scalar {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Opaque bytes that may hide pointers; must be scanned conservatively.
    Opaque {
        /// Byte offset from the start of the object.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
}

impl LayoutElement {
    /// Byte offset of the element.
    pub fn offset(&self) -> u64 {
        match self {
            LayoutElement::Pointer { offset, .. }
            | LayoutElement::Scalar { offset, .. }
            | LayoutElement::Opaque { offset, .. } => *offset,
        }
    }
}

/// Field location resolved within a struct layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// Byte offset from the start of the struct.
    pub offset: u64,
    /// Field size in bytes.
    pub size: u64,
}

/// Everything derived from one type's structure: what precise tracing,
/// allocation and state transfer ask of a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeLayout {
    /// Size in bytes (0 for unknown ids).
    pub size: u64,
    /// Alignment in bytes (1 for unknown ids).
    pub align: u64,
    /// The struct field layout (empty for non-struct types).
    pub fields: Vec<FieldLayout>,
    /// The flattened layout: pointer slots, scalar runs and opaque runs, in
    /// offset order.
    pub elements: Vec<LayoutElement>,
}

/// The layout of an id the registry does not know: an empty, untraceable
/// blob.
static UNKNOWN_LAYOUT: TypeLayout =
    TypeLayout { size: 0, align: 1, fields: Vec::new(), elements: Vec::new() };

/// Registry of every type known to one program version.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    types: BTreeMap<u64, TypeDesc>,
    by_name: BTreeMap<Arc<str>, u64>,
    next_id: u64,
    /// Every id's derived layout, indexed by id; filled on the first layout
    /// query and dropped by [`register`](Self::register).
    layouts: OnceLock<Vec<TypeLayout>>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TypeRegistry { next_id: 1, ..TypeRegistry::default() }
    }

    /// Registers a type under `name`, returning its id. Registering the same
    /// name twice returns the existing id (types are identified by name
    /// within one version).
    pub fn register(&mut self, name: impl Into<Arc<str>>, kind: TypeKind) -> TypeId {
        let name: Arc<str> = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return TypeId(id);
        }
        let id = TypeId(self.next_id);
        self.next_id += 1;
        self.by_name.insert(Arc::clone(&name), id.0);
        self.types.insert(id.0, TypeDesc { id, name, kind });
        // A new type can complete fields that named its id before it existed.
        self.layouts = OnceLock::new();
        id
    }

    /// Shorthand: a non-pointer integer type.
    pub fn int(&mut self, name: &str, size: u64) -> TypeId {
        self.register(name, TypeKind::Int { size })
    }

    /// Shorthand: a pointer-sized integer (opaque).
    pub fn ptr_sized_int(&mut self, name: &str) -> TypeId {
        self.register(name, TypeKind::PtrSizedInt)
    }

    /// Shorthand: a pointer type.
    pub fn pointer(&mut self, name: &str, to: TypeId) -> TypeId {
        self.register(name, TypeKind::Pointer { to })
    }

    /// Shorthand: a `char[len]` buffer.
    pub fn char_array(&mut self, name: &str, len: u64) -> TypeId {
        self.register(name, TypeKind::CharArray { len })
    }

    /// Shorthand: an array type.
    pub fn array(&mut self, name: &str, elem: TypeId, len: u64) -> TypeId {
        self.register(name, TypeKind::Array { elem, len })
    }

    /// Shorthand: a struct type.
    pub fn struct_type(&mut self, name: &str, fields: Vec<Field>) -> TypeId {
        self.register(name, TypeKind::Struct { fields })
    }

    /// Shorthand: a union type.
    pub fn union_type(&mut self, name: &str, variants: Vec<Field>) -> TypeId {
        self.register(name, TypeKind::Union { variants })
    }

    /// Shorthand: an opaque blob.
    pub fn opaque(&mut self, name: &str, size: u64) -> TypeId {
        self.register(name, TypeKind::Opaque { size })
    }

    /// Looks up a type descriptor by id.
    pub fn get(&self, id: TypeId) -> Option<&TypeDesc> {
        self.types.get(&id.0)
    }

    /// Looks up a type id by name.
    pub fn lookup(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).map(|&id| TypeId(id))
    }

    /// Iterates over all registered types.
    pub fn iter(&self) -> impl Iterator<Item = &TypeDesc> {
        self.types.values()
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The derived layout of type `id`, computed for every registered type
    /// on the first query after the last [`register`](Self::register).
    ///
    /// Unknown ids have size 0, alignment 1 and no fields or elements (they
    /// behave like opaque, untraceable blobs).
    pub fn layout(&self, id: TypeId) -> &TypeLayout {
        let layouts =
            self.layouts.get_or_init(|| (0..self.next_id).map(|i| self.derive_layout(TypeId(i))).collect());
        usize::try_from(id.0).ok().and_then(|i| layouts.get(i)).unwrap_or(&UNKNOWN_LAYOUT)
    }

    /// Derives the layout of type `id` by walking its type tree, without the
    /// memo. This is the computation [`layout`](Self::layout) memoizes;
    /// everything else should read the memo.
    pub fn derive_layout(&self, id: TypeId) -> TypeLayout {
        let fields = match self.get(id).map(|d| &d.kind) {
            Some(TypeKind::Struct { fields }) => self.derive_struct_layout(fields).0,
            _ => Vec::new(),
        };
        let mut elements = Vec::new();
        self.derive_elements(id, 0, &mut elements);
        TypeLayout { size: self.derive_size(id), align: self.derive_align(id), fields, elements }
    }

    /// Size of an object of type `id`, in bytes.
    ///
    /// Unknown ids have size 0 (they behave like opaque, untraceable blobs).
    pub fn size_of(&self, id: TypeId) -> u64 {
        self.layout(id).size
    }

    /// Alignment of a type, in bytes.
    pub fn align_of(&self, id: TypeId) -> u64 {
        self.layout(id).align
    }

    /// The field layout of a struct type.
    ///
    /// Returns an empty slice for non-struct types.
    pub fn struct_layout(&self, id: TypeId) -> &[FieldLayout] {
        &self.layout(id).fields
    }

    /// Byte offset of a named field within a struct type.
    pub fn field_offset(&self, id: TypeId, field: &str) -> Option<u64> {
        self.struct_layout(id).iter().find(|f| f.name == field).map(|f| f.offset)
    }

    /// Flattens a type into its traced layout: pointer slots, scalar runs and
    /// opaque runs, in offset order. This is the unit of work of precise
    /// tracing: pointer slots are followed, scalars copied, opaque runs handed
    /// to the conservative scanner.
    pub fn layout_elements(&self, id: TypeId) -> &[LayoutElement] {
        &self.layout(id).elements
    }

    /// True if the type contains any opaque layout element (and therefore
    /// requires conservative scanning when traced).
    pub fn has_opaque_parts(&self, id: TypeId) -> bool {
        self.layout_elements(id).iter().any(|e| matches!(e, LayoutElement::Opaque { .. }))
    }

    /// True if the type contains any pointer slot.
    pub fn has_pointers(&self, id: TypeId) -> bool {
        self.layout_elements(id).iter().any(|e| matches!(e, LayoutElement::Pointer { .. }))
    }

    fn derive_size(&self, id: TypeId) -> u64 {
        match self.get(id).map(|d| &d.kind) {
            Some(TypeKind::Int { size }) => *size,
            Some(TypeKind::PtrSizedInt) | Some(TypeKind::Pointer { .. }) => 8,
            Some(TypeKind::CharArray { len }) => *len,
            Some(TypeKind::Array { elem, len }) => self.derive_stride(*elem) * len,
            Some(TypeKind::Struct { fields }) => self.derive_struct_layout(fields).1,
            Some(TypeKind::Union { variants }) => {
                variants.iter().map(|f| self.derive_size(f.ty)).max().unwrap_or(0)
            }
            Some(TypeKind::Opaque { size }) => *size,
            None => 0,
        }
    }

    fn derive_align(&self, id: TypeId) -> u64 {
        match self.get(id).map(|d| &d.kind) {
            Some(TypeKind::Int { size }) => (*size).max(1),
            Some(TypeKind::PtrSizedInt) | Some(TypeKind::Pointer { .. }) => 8,
            Some(TypeKind::CharArray { .. }) => 1,
            Some(TypeKind::Array { elem, .. }) => self.derive_align(*elem),
            Some(TypeKind::Struct { fields }) => {
                fields.iter().map(|f| self.derive_align(f.ty)).max().unwrap_or(1)
            }
            Some(TypeKind::Union { variants }) => {
                variants.iter().map(|f| self.derive_align(f.ty)).max().unwrap_or(1)
            }
            Some(TypeKind::Opaque { .. }) => 8,
            None => 1,
        }
    }

    fn derive_stride(&self, id: TypeId) -> u64 {
        let size = self.derive_size(id);
        let align = self.derive_align(id);
        size.div_ceil(align) * align
    }

    fn derive_struct_layout(&self, fields: &[Field]) -> (Vec<FieldLayout>, u64) {
        let mut out = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut max_align = 1u64;
        for f in fields {
            let align = self.derive_align(f.ty);
            let size = self.derive_size(f.ty);
            max_align = max_align.max(align);
            offset = offset.div_ceil(align) * align;
            out.push(FieldLayout { name: f.name.clone(), ty: f.ty, offset, size });
            offset += size;
        }
        let total = offset.div_ceil(max_align) * max_align;
        (out, total.max(1))
    }

    fn derive_elements(&self, id: TypeId, base: u64, out: &mut Vec<LayoutElement>) {
        match self.get(id).map(|d| &d.kind) {
            Some(TypeKind::Int { size }) => out.push(LayoutElement::Scalar { offset: base, len: *size }),
            Some(TypeKind::PtrSizedInt) => out.push(LayoutElement::Opaque { offset: base, len: 8 }),
            Some(TypeKind::Pointer { to }) => out.push(LayoutElement::Pointer { offset: base, to: *to }),
            Some(TypeKind::CharArray { len }) => out.push(LayoutElement::Opaque { offset: base, len: *len }),
            Some(TypeKind::Array { elem, len }) => {
                let stride = self.derive_stride(*elem);
                for i in 0..*len {
                    self.derive_elements(*elem, base + i * stride, out);
                }
            }
            Some(TypeKind::Struct { fields }) => {
                for f in self.derive_struct_layout(fields).0 {
                    self.derive_elements(f.ty, base + f.offset, out);
                }
            }
            Some(TypeKind::Union { variants }) => {
                let size = variants.iter().map(|f| self.derive_size(f.ty)).max().unwrap_or(0);
                out.push(LayoutElement::Opaque { offset: base, len: size });
            }
            Some(TypeKind::Opaque { size }) => out.push(LayoutElement::Opaque { offset: base, len: *size }),
            None => {}
        }
    }

    /// Structural comparison of a type in this registry against a type in
    /// another registry (typically: old version vs. new version).
    ///
    /// Two types are *layout-compatible* when their flattened layouts have the
    /// same element kinds, offsets and sizes, and the names of struct fields
    /// match pairwise. Pointee type *names* must match but pointee ids may
    /// differ (ids are version-local).
    pub fn is_layout_compatible(&self, id: TypeId, other: &TypeRegistry, other_id: TypeId) -> bool {
        let (a, b) = (self.layout_elements(id), other.layout_elements(other_id));
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
            (
                LayoutElement::Scalar { offset: o1, len: l1 },
                LayoutElement::Scalar { offset: o2, len: l2 },
            ) => o1 == o2 && l1 == l2,
            (
                LayoutElement::Opaque { offset: o1, len: l1 },
                LayoutElement::Opaque { offset: o2, len: l2 },
            ) => o1 == o2 && l1 == l2,
            (
                LayoutElement::Pointer { offset: o1, to: t1 },
                LayoutElement::Pointer { offset: o2, to: t2 },
            ) => {
                o1 == o2
                    && match (self.get(*t1), other.get(*t2)) {
                        (Some(a), Some(b)) => a.name == b.name,
                        _ => false,
                    }
            }
            _ => false,
        }) && self.size_of(id) == other.size_of(other_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points field `index` of struct `id` at `ty`: how these tests build
    /// self-referential structs. Drops the memo like `register` does.
    fn patch_field(reg: &mut TypeRegistry, id: TypeId, index: usize, ty: TypeId) {
        if let Some(TypeKind::Struct { fields }) = reg.types.get_mut(&id.0).map(|d| &mut d.kind) {
            fields[index].ty = ty;
        }
        reg.layouts = OnceLock::new();
    }

    fn listing1_types() -> (TypeRegistry, TypeId, TypeId) {
        // The types from Listing 1 of the paper: `char b[8]` and
        // `struct list_s { int value; struct list_s *next; }`.
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let list = reg.register(
            "l_t",
            TypeKind::Struct { fields: vec![Field::new("value", int), Field::new("next", TypeId(0))] },
        );
        // Patch the self-referential pointer after the struct id exists.
        let list_ptr = reg.pointer("l_t*", list);
        patch_field(&mut reg, list, 1, list_ptr);
        let b = reg.char_array("char[8]", 8);
        (reg, list, b)
    }

    #[test]
    fn primitive_sizes_and_alignment() {
        let mut reg = TypeRegistry::new();
        let i32t = reg.int("int", 4);
        let p = reg.pointer("int*", i32t);
        let c = reg.char_array("char[13]", 13);
        assert_eq!(reg.size_of(i32t), 4);
        assert_eq!(reg.size_of(p), 8);
        assert_eq!(reg.align_of(p), 8);
        assert_eq!(reg.size_of(c), 13);
        assert_eq!(reg.align_of(c), 1);
    }

    #[test]
    fn struct_layout_with_padding() {
        let (reg, list, _) = listing1_types();
        // int value at 0, pointer next aligned to 8, total 16.
        let layout = reg.struct_layout(list);
        assert_eq!(layout.len(), 2);
        assert_eq!(layout[0].offset, 0);
        assert_eq!(layout[1].offset, 8);
        assert_eq!(reg.size_of(list), 16);
        assert_eq!(reg.field_offset(list, "next"), Some(8));
        assert_eq!(reg.field_offset(list, "missing"), None);
    }

    #[test]
    fn layout_elements_classify_pointer_scalar_opaque() {
        let (reg, list, b) = listing1_types();
        let elems = reg.layout_elements(list);
        assert!(matches!(elems[0], LayoutElement::Scalar { offset: 0, len: 4 }));
        assert!(matches!(elems[1], LayoutElement::Pointer { offset: 8, .. }));
        assert!(reg.has_pointers(list));
        assert!(!reg.has_opaque_parts(list));

        let belems = reg.layout_elements(b);
        assert_eq!(belems.len(), 1);
        assert!(matches!(belems[0], LayoutElement::Opaque { offset: 0, len: 8 }));
        assert!(reg.has_opaque_parts(b));
    }

    #[test]
    fn arrays_flatten_per_element() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let pair = reg.struct_type("pair", vec![Field::new("a", int), Field::new("b", int)]);
        let arr = reg.array("pair[3]", pair, 3);
        assert_eq!(reg.size_of(arr), 24);
        let elems = reg.layout_elements(arr);
        assert_eq!(elems.len(), 6);
        assert_eq!(elems[5].offset(), 20);
    }

    #[test]
    fn unions_and_ptr_sized_ints_are_opaque() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        let ptr = reg.pointer("int*", int);
        let u = reg.union_type("u", vec![Field::new("i", int), Field::new("p", ptr)]);
        let elems = reg.layout_elements(u);
        assert_eq!(elems, vec![LayoutElement::Opaque { offset: 0, len: 8 }]);
        let psi = reg.ptr_sized_int("uintptr_t");
        assert!(reg.has_opaque_parts(psi));
    }

    #[test]
    fn duplicate_registration_returns_same_id() {
        let mut reg = TypeRegistry::new();
        let a = reg.int("int", 4);
        let b = reg.int("int", 4);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup("int"), Some(a));
    }

    #[test]
    fn layout_compatibility_across_registries() {
        let (reg_v1, list_v1, _) = listing1_types();
        // v2 with an identical list type.
        let (reg_v2, list_v2, _) = listing1_types();
        assert!(reg_v1.is_layout_compatible(list_v1, &reg_v2, list_v2));

        // v2 with an extra field (the `new` field of Figure 2) is not
        // layout-compatible and therefore needs a type transformation.
        let mut reg_v2b = TypeRegistry::new();
        let int = reg_v2b.int("int", 4);
        let list2 = reg_v2b.register(
            "l_t",
            TypeKind::Struct {
                fields: vec![Field::new("value", int), Field::new("new", int), Field::new("next", TypeId(0))],
            },
        );
        let lp = reg_v2b.pointer("l_t*", list2);
        patch_field(&mut reg_v2b, list2, 2, lp);
        assert!(!reg_v1.is_layout_compatible(list_v1, &reg_v2b, list2));
    }

    #[test]
    fn unknown_type_behaves_as_empty() {
        let reg = TypeRegistry::new();
        assert_eq!(reg.size_of(TypeId(99)), 0);
        assert!(reg.layout_elements(TypeId(99)).is_empty());
        assert_eq!(reg.layout(TypeId(99)), &reg.derive_layout(TypeId(99)));
    }

    #[test]
    fn memo_matches_the_derivation_for_every_type() {
        let (mut reg, _, _) = listing1_types();
        let int = reg.lookup("int").unwrap();
        let pair = reg.struct_type("pair", vec![Field::new("a", int), Field::new("b", int)]);
        let arr = reg.array("pair[3]", pair, 3);
        let ptr = reg.pointer("int*", int);
        reg.union_type("u", vec![Field::new("i", int), Field::new("p", ptr)]);
        reg.struct_type(
            "outer",
            vec![Field::new("c", reg.lookup("char[8]").unwrap()), Field::new("arr", arr)],
        );
        reg.ptr_sized_int("uintptr_t");
        reg.opaque("blob", 24);
        for id in (0..=reg.len() as u64 + 1).map(TypeId) {
            assert_eq!(reg.layout(id), &reg.derive_layout(id), "type {id:?}");
        }
    }

    /// `derive_layout` answers as a registry without a memo would, so the
    /// memoized answers must equal it after any sequence of queries and
    /// registrations.
    #[test]
    fn registering_a_forward_referenced_type_updates_the_layout() {
        let mut reg = TypeRegistry::new();
        let int = reg.int("int", 4);
        // `node` names id 3 before anything is registered under it.
        let ahead = TypeId(3);
        let node = reg.struct_type("node", vec![Field::new("v", int), Field::new("link", ahead)]);
        let before = reg.layout(node).clone();
        assert_eq!(before, reg.derive_layout(node));
        assert_eq!((before.size, reg.field_offset(node, "link")), (4, Some(4)));
        assert!(!reg.has_pointers(node));

        assert_eq!(reg.pointer("node*", node), ahead);
        let after = reg.layout(node);
        assert_eq!(after, &reg.derive_layout(node));
        assert_eq!((after.size, after.align, reg.field_offset(node, "link")), (16, 8, Some(8)));
        assert_eq!(reg.layout_elements(node)[1], LayoutElement::Pointer { offset: 8, to: node });
        assert_ne!(after, &before);

        // Registering an existing name changes nothing and keeps the memo.
        reg.int("int", 4);
        assert_eq!(reg.layout(node), &reg.derive_layout(node));
    }
}
