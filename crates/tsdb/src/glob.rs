//! Glob pattern matching for metric/tag filters.
//!
//! The paper's feature-family queries use patterns like
//! `disk{host=datanode*}` (§3.2). We support `*` (any run of characters,
//! including empty) and `?` (exactly one character); everything else matches
//! literally.

/// The one wildcard matcher: `any` in `pattern` matches any run of
/// characters (including none), `one` exactly one character, everything
/// else itself. [`glob_match`] is it over `*` / `?`; SQL `LIKE` (the query
/// crate's `sql_like`) over `%` / `_`.
///
/// Iterative two-pointer algorithm with backtracking over the most recent
/// `any` — linear in practice, worst case `O(len(text) * len(pattern))`.
pub fn wildcard_match(pattern: &str, text: &str, any: char, one: char) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after `any`, text idx)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == one || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == any {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Let the last `any` absorb one more character.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    // Remaining pattern must be all `any`.
    p[pi..].iter().all(|&c| c == any)
}

/// Returns true when `text` matches the glob `pattern`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    wildcard_match(pattern, text, '*', '?')
}

/// True when the pattern contains glob metacharacters. Exact-match filters
/// can use the index directly; glob filters need a scan.
pub fn is_glob(pattern: &str) -> bool {
    pattern.contains('*') || pattern.contains('?')
}

/// The literal prefix of a glob pattern: everything before the first
/// metacharacter. `datanode*` → `datanode`, `*node*` → `` (empty).
///
/// Every string matching the pattern starts with this prefix, so an ordered
/// name index can be range-scanned over `[prefix, prefix-successor)` instead
/// of walking every key.
pub fn glob_literal_prefix(pattern: &str) -> &str {
    match pattern.find(['*', '?']) {
        Some(i) => &pattern[..i],
        None => pattern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        assert!(glob_match("disk", "disk"));
        assert!(!glob_match("disk", "disks"));
        assert!(!glob_match("disks", "disk"));
    }

    #[test]
    fn star_matches_runs() {
        assert!(glob_match("datanode*", "datanode-1"));
        assert!(glob_match("datanode*", "datanode"));
        assert!(glob_match("*node*", "namenode-1"));
        assert!(!glob_match("datanode*", "namenode-1"));
    }

    #[test]
    fn question_matches_single_char() {
        assert!(glob_match("host-?", "host-1"));
        assert!(!glob_match("host-?", "host-12"));
        assert!(!glob_match("host-?", "host-"));
    }

    #[test]
    fn multiple_stars_backtrack() {
        assert!(glob_match("a*b*c", "aXbYc"));
        assert!(glob_match("a*b*c", "abc"));
        assert!(glob_match("a*b*c", "aabbbc"));
        assert!(!glob_match("a*b*c", "ac"));
    }

    #[test]
    fn empty_pattern_and_text() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("*", ""));
        assert!(glob_match("**", "anything"));
    }

    #[test]
    fn adversarial_backtracking_terminates() {
        let text = "a".repeat(60);
        assert!(!glob_match("*a*a*a*a*a*a*a*b", &text));
        assert!(glob_match("*a*a*a*a*a*a*a*a", &text));
    }

    #[test]
    fn is_glob_detection() {
        assert!(is_glob("data*"));
        assert!(is_glob("h?st"));
        assert!(!is_glob("plain-name"));
    }

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(glob_literal_prefix("datanode*"), "datanode");
        assert_eq!(glob_literal_prefix("disk?x*"), "disk");
        assert_eq!(glob_literal_prefix("*node*"), "");
        assert_eq!(glob_literal_prefix("exact"), "exact");
        assert_eq!(glob_literal_prefix(""), "");
    }

    #[test]
    fn every_match_starts_with_the_literal_prefix() {
        for (pat, text) in
            [("data*-1", "datanode-1"), ("a?c*", "abcdef"), ("host-*", "host-"), ("x*", "x")]
        {
            assert!(glob_match(pat, text));
            assert!(text.starts_with(glob_literal_prefix(pat)));
        }
    }
}
