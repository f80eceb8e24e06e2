//! Version-agnostic call-stack identifiers.
//!
//! Mutable reinitialization matches every system call observed at replay time
//! against the corresponding call recorded in the old version's startup log.
//! The match key is a *call stack ID*: a hash of all the active function
//! names on the calling thread's stack (paper §5). The same identifiers are
//! also used to pair threads and processes across versions (creation-time
//! call stacks) and to match dynamic objects reallocated at startup.

use crate::hash::{fnv1a, FNV_OFFSET};

/// A call-stack identifier: a stable hash over the active function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallStackId(pub u64);

impl CallStackId {
    /// Computes the identifier of a call stack given the active function
    /// names, outermost first.
    ///
    /// The hash is FNV-1a over the names separated by a sentinel byte, which
    /// keeps it stable across program versions as long as the function names
    /// on the path are unchanged (function *renaming* between versions changes
    /// the identifier — the conservative behaviour the paper accepts).
    pub fn from_frames<S: AsRef<str>>(frames: &[S]) -> Self {
        let mut hash = FNV_OFFSET;
        for frame in frames {
            hash = fnv1a(&[0x1f], fnv1a(frame.as_ref().as_bytes(), hash));
        }
        CallStackId(hash)
    }

    /// The identifier of an empty call stack.
    pub fn empty() -> Self {
        Self::from_frames::<&str>(&[])
    }
}

impl std::fmt::Display for CallStackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cs:{:#018x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_stacks_hash_equal() {
        let a = CallStackId::from_frames(&["main", "server_init", "socket_setup"]);
        let b = CallStackId::from_frames(&["main", "server_init", "socket_setup"]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_stacks_hash_differently() {
        let a = CallStackId::from_frames(&["main", "server_init"]);
        let b = CallStackId::from_frames(&["main", "worker_init"]);
        let c = CallStackId::from_frames(&["main"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn frame_order_matters() {
        let a = CallStackId::from_frames(&["main", "init"]);
        let b = CallStackId::from_frames(&["init", "main"]);
        assert_ne!(a, b);
    }

    #[test]
    fn concatenation_is_not_ambiguous() {
        // ["ab", "c"] must differ from ["a", "bc"].
        let a = CallStackId::from_frames(&["ab", "c"]);
        let b = CallStackId::from_frames(&["a", "bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn version_agnostic_across_string_types() {
        let owned: Vec<String> = vec!["main".into(), "server_init".into()];
        let a = CallStackId::from_frames(&owned);
        let b = CallStackId::from_frames(&["main", "server_init"]);
        assert_eq!(a, b);
    }

    #[test]
    fn identifiers_are_pinned() {
        // FNV-1a over "main", 0x1f, "server_init", 0x1f: recorded startup
        // logs and checkpoints key on these values.
        assert_eq!(CallStackId::from_frames(&["main", "server_init"]).0, 0xb600_c6d4_94c9_7c4a);
        assert_eq!(CallStackId::empty().0, crate::hash::FNV_OFFSET);
    }

    #[test]
    fn empty_stack_is_stable() {
        assert_eq!(CallStackId::empty(), CallStackId::from_frames::<&str>(&[]));
        assert!(CallStackId::empty().to_string().starts_with("cs:"));
    }
}
