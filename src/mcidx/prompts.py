"""Prompt templates for every generation call the pipeline makes.

Templates use ``string.Template`` placeholders; values are inserted
verbatim, so document text containing ``$`` is safe.
"""

from __future__ import annotations

from string import Template

SUMMARY = Template("""\
You are a helpful summarization assistant. Please help me summarize the following section into no more
than 10 sentences or 200 words.

**Section Name**:
$section_name

**Section Text**:
$section_text
""")

KEYWORDS = Template("""\
You are a helpful keyword extractor. You need to extract keywords from the following section. The keywords
should consist of concepts, entities, or important descriptions that are related to the section text, which
could be used to answer any questions from users.

**Section Name**:
$section_name

**Section Text**:
**Beginning of text**
$section_text
**End of text**

Please output format in list format: [...]. Do not output anything else aside from this list.
""")

ANSWER = Template("""\
You are a helpful question answering assistant. You are good at answering question based on provided contents.

**Contents**: $quotes

**Question**: $question

**Instruction:**
Assume you do not have any background and internal knowledge about this given contents and question.
You need to answer the question using the given contents only. The answer need to be short and accurate.
""")

JUDGE = Template("""\
You are a helpful assistant for evaluating answers. Given a question and ground truth answer, there will be
two possible answers. Provide a score from 0-10 for each answer.

**Question**: $question

**Ground truth answer**: $ground_truth_answer

**Answer 1**: $answer_1
**Answer 2**: $answer_2


**Instruction:**
Assume you do not have any background and internal knowledge about this given contents and question. You
need to evaluate each answer and give a score based on the ground truth answer.
You must write out your reasoning of the score based on relevance to the answer. If both answers are
exactly similar, you must ensure the scores and reasoning for both answers are the same.
Finally in a new line, you must return the scores and nothing else. The scores must be returned in the
following json format:
{"answer_1_score":"...", "answer_2_score":"..."}
""")

