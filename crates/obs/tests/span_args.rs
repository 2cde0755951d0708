//! `span!` argument laziness. Span collection is a process-global switch,
//! so this lives in its own test binary where nothing else flips it.

use cello_obs::span;
use std::cell::Cell;

#[test]
fn span_arguments_are_evaluated_only_while_collecting() {
    let evaluated = Cell::new(0u32);
    let arg = || {
        evaluated.set(evaluated.get() + 1);
        7u64
    };

    span::set_enabled(false);
    {
        let _g = cello_obs::span!("lazy", value = arg());
    }
    assert_eq!(
        evaluated.get(),
        0,
        "a disabled span must not build its args"
    );
    assert!(span::drain().is_empty(), "nothing collected while disabled");

    span::set_enabled(true);
    {
        let _g = cello_obs::span!("lazy", value = arg());
    }
    span::set_enabled(false);
    assert_eq!(evaluated.get(), 1, "an enabled span builds its args once");
    let finished = span::drain();
    assert_eq!(finished.len(), 1);
    assert_eq!(finished[0].get_arg("value"), Some(&span::ArgValue::U64(7)));
}
