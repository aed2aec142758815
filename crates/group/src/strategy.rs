//! The fixed group shapes of the paper's evaluation (§5.1): one group
//! per process (`GP1`), one global group (`NORM`) and `k` contiguous
//! groups (`GP4`). `GP`'s trace-assisted groups come from
//! [`crate::form_groups`].

use crate::def::GroupDef;

/// One group per process (`GP1`).
pub fn singletons(n: usize) -> GroupDef {
    GroupDef::new(n, (0..n as u32).map(|r| vec![r]).collect()).expect("valid by construction")
}

/// One global group (`NORM`).
pub fn single(n: usize) -> GroupDef {
    GroupDef::new(n, vec![(0..n as u32).collect()]).expect("valid by construction")
}

/// `k` groups of sequential ranks, sizes as equal as possible (`GP4` uses
/// `k = 4`).
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn contiguous(n: usize, k: usize) -> GroupDef {
    assert!(k > 0 && k <= n, "need 1..=n groups");
    let base = n / k;
    let extra = n % k;
    let mut groups = Vec::with_capacity(k);
    let mut next = 0u32;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        groups.push((next..next + size as u32).collect());
        next += size as u32;
    }
    GroupDef::new(n, groups).expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_shape() {
        let def = singletons(5);
        assert_eq!(def.group_count(), 5);
        assert_eq!(def.max_group_size(), 1);
    }

    #[test]
    fn single_shape() {
        let def = single(5);
        assert_eq!(def.group_count(), 1);
        assert_eq!(def.max_group_size(), 5);
    }

    #[test]
    fn contiguous_equal_split() {
        let def = contiguous(8, 4);
        assert_eq!(def.group_count(), 4);
        assert_eq!(def.members(0), &[0, 1]);
        assert_eq!(def.members(3), &[6, 7]);
    }

    #[test]
    fn contiguous_uneven_split() {
        let def = contiguous(10, 4);
        let sizes: Vec<usize> = def.groups().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(def.members(0), &[0, 1, 2]);
    }
}
