package exported

// Answer exports answer to package exported_test only.
var Answer = answer
