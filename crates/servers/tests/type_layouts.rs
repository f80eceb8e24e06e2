//! Differential tests of the derived type metadata of every server model.
//!
//! A [`TypeRegistry`] derives each type's layout once and then answers from
//! that memo; a [`TransferContext`] computes each type pair's field map once
//! per update. Both must answer exactly as the uncached computations would,
//! for every type every program registers at every generation the benches
//! and update catalogs run.

use mcr_core::runtime::{boot, BootOptions};
use mcr_core::transfer::{compute_field_map, TransferContext};
use mcr_core::InstanceState;
use mcr_procsim::Kernel;
use mcr_servers::{boxed_program_by_name, generations_for, install_standard_files, ServerSpec};
use mcr_typemeta::{TypeId, TypeRegistry};

/// Every (program, generation) pair the benches and update catalogs boot:
/// each paper program through its last catalogued release, and both cache
/// generations.
fn booted_states() -> Vec<(String, Vec<InstanceState>)> {
    let mut programs: Vec<(String, u32)> =
        ServerSpec::all().iter().map(|s| (s.name.to_string(), generations_for(&s.name))).collect();
    programs.push(("cache".to_string(), 2));
    programs
        .into_iter()
        .map(|(name, last)| {
            let states = (1..=last)
                .map(|generation| {
                    let mut kernel = Kernel::new();
                    install_standard_files(&mut kernel);
                    let program = boxed_program_by_name(&name, generation);
                    boot(&mut kernel, program, &BootOptions::default())
                        .unwrap_or_else(|e| panic!("{name} generation {generation} boots: {e}"))
                        .state
                })
                .collect();
            (name, states)
        })
        .collect()
}

fn assert_memo_matches_derivation(reg: &TypeRegistry, what: &str) {
    assert!(!reg.is_empty(), "{what}: no types registered");
    // Every registered id, plus ids the registry does not know.
    let unknown = [TypeId(0), TypeId(reg.len() as u64 + 1), TypeId(u64::MAX)];
    for id in reg.iter().map(|d| d.id).chain(unknown) {
        let want = reg.derive_layout(id);
        let at = format!("{what}, type {id:?}");
        assert_eq!(reg.size_of(id), want.size, "{at}: size");
        assert_eq!(reg.align_of(id), want.align, "{at}: align");
        assert_eq!(reg.layout_elements(id), want.elements.as_slice(), "{at}: elements");
        assert_eq!(reg.struct_layout(id), want.fields.as_slice(), "{at}: fields");
        for field in &want.fields {
            assert_eq!(reg.field_offset(id, &field.name), Some(field.offset), "{at}: {}", field.name);
        }
        assert_eq!(reg.field_offset(id, "no such field"), None, "{at}");
    }
}

#[test]
fn memoized_layouts_equal_the_uncached_derivation() {
    for (name, states) in booted_states() {
        for (i, state) in states.iter().enumerate() {
            assert_memo_matches_derivation(&state.types, &format!("{name} generation {}", i + 1));
        }
    }
}

#[test]
fn bridges_carry_the_field_map_of_their_pair() {
    for (name, states) in booted_states() {
        for (i, pair) in states.windows(2).enumerate() {
            let (old, new) = (&pair[0], &pair[1]);
            let plan = TransferContext::new(old, new);
            for desc in old.types.iter() {
                let bridge = plan.bridge(desc.id).expect("every old type is bridged");
                let want = new
                    .types
                    .lookup(&desc.name)
                    .map(|n| (n, compute_field_map(&old.types, desc.id, &new.types, n)));
                assert_eq!(bridge.counterpart, want, "{name} {} -> {}: {}", i + 1, i + 2, desc.name);
            }
        }
    }
}
