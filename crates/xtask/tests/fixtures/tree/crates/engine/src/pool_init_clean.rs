// Pool work next to an initialiser, or only named inside one, is fine.
pub fn doubled(cell: &OnceLock<Vec<u64>>, xs: &[u64]) -> &Vec<u64> {
    let parallel: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
    cell.get_or_init(|| {
        // xs.par_iter() in a comment, and a plain join:
        let label = ["rayon::join", "par_iter"].join(",");
        parallel.iter().map(|x| x + label.len() as u64).collect()
    })
}

// Transitive pool work is out of a lexical rule's reach.
pub fn indirect(cell: &OnceLock<u64>, xs: &[u64]) -> &u64 {
    cell.get_or_init(|| parallel_sum(xs))
}

fn parallel_sum(xs: &[u64]) -> u64 {
    xs.par_iter().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_fan_out_inside_an_initialiser() {
        let cell = OnceLock::new();
        cell.get_or_init(|| rayon::scope(|_| ()));
    }
}
