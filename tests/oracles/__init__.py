"""Reference oracles kept out of ``src/``.

Each module here holds a plain, slow implementation that the production
code replaced with an array-native one.  Only tests and A/B benches
import them: the equivalence suites pin the production code to these
oracles output for output.
"""
